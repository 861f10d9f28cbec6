"""Chat-completion gateway with retries, fingerprinting, and record/replay.

Responsibilities:
  * a provider-agnostic request/response pair for single-turn chat calls
  * the declarative retry policy, and the type and range checks it
    shares with ``PipelineConfig``
  * a stable content fingerprint identifying a request (the credential is
    deliberately outside the identity)
  * interchangeable backends, each answering ``complete(request)``: live
    HTTP, replay-from-fixtures, and a recording wrapper that captures live
    traffic for later replay. The live backend is built with the API
    credential and is the only object that holds it. Both fixture backends
    keep their responses in the response log of ``cache.DiskResponseCache``,
    the store the response cache uses too
  * the request path every pipeline stage uses, one function per job:
    ``complete_parsed`` fingerprints the request once and builds one
    attempt; ``lookup_or_call`` is that attempt's cache-or-call;
    ``complete_with_retry`` is the only retry loop, with exponential
    backoff driven by a declarative policy. Transport errors, throttling
    and malformed output share one budget of ``max_attempts`` per request,
    and a malformed answer is evicted from the cache before the retry.

The live backend speaks the common chat-completions JSON dialect: a single
POST with system/user messages and bearer auth, which both OpenAI-style and
Gemini-style endpoints accept. It posts through ``KeepAliveSession``, a
stdlib HTTP/1.1 client that pools keep-alive connections per origin.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import http.client
import json
import math
import select
import ssl
import threading
import time
import urllib.request
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Protocol, TypeVar, runtime_checkable
from urllib.parse import unquote, urlsplit

from . import __version__
from .cache import ChatResponse, DiskResponseCache
from .errors import (
    AuthFailedError,
    DataFormatError,
    ExhaustedRetriesError,
    GatewayError,
    MalformedOutputError,
    NoFixtureError,
    RateLimitedError,
    TransportError,
)

T = TypeVar("T")

# The error kinds a request is retried on; every other error ends it at once.
RETRYABLE_ERROR_KINDS = frozenset({"transport", "rate_limited", "malformed_output"})


class ResponseFormat(str, enum.Enum):
    FREE_TEXT = "free_text"
    JSON_OBJECT = "json_object"


@dataclass(frozen=True, slots=True)
class ChatRequest:
    """One single-turn chat call. Temperature defaults to 0.0 for replayability."""

    model: str
    system_prompt: str
    user_prompt: str
    temperature: float = 0.0
    response_format: ResponseFormat = ResponseFormat.FREE_TEXT

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("model must be non-empty")
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError("temperature must be within [0.0, 1.0]")


def config_kwargs(cls: type, payload: Any, label: str) -> dict[str, Any]:
    """``payload`` as keyword arguments for the config dataclass ``cls``: a
    JSON object whose keys are all field names of ``cls``. Absent fields
    keep the class defaults."""
    if not isinstance(payload, Mapping):
        raise TypeError(f"{label} must be an object, got {payload!r}")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {label} key(s): {', '.join(sorted(map(repr, unknown)))}")
    return dict(payload)


def check_int(name: str, value: Any, minimum: int) -> None:
    """Reject anything but an integer (a bool or a float included) below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_number(name: str, value: Any, low: float, high: float = math.inf) -> float:
    """``value`` as a float, if it is a finite number (not a bool) within [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and low <= value <= high):
        raise ValueError(f"{name} must be a finite number within [{low}, {high}], got {value}")
    return float(value)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Declarative retry behaviour shared by all stages: how many attempts a
    request gets and how long to wait between them. Which errors are retried
    is fixed by ``RETRYABLE_ERROR_KINDS``."""

    max_attempts: int = 3
    base_delay_ms: int = 250
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        check_int("max_attempts", self.max_attempts, 1)
        check_int("base_delay_ms", self.base_delay_ms, 0)
        backoff_factor = check_number("backoff_factor", self.backoff_factor, 1.0)
        object.__setattr__(self, "backoff_factor", backoff_factor)

    def delay_ms(self, retry_index: int) -> float:
        """Delay before re-attempt number ``retry_index`` (1-based).

        Grows as base * factor**(retry_index - 1); nondecreasing since the
        factor is >= 1.
        """
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        return self.base_delay_ms * self.backoff_factor ** (retry_index - 1)

    def is_retryable(self, error: BaseException) -> bool:
        return getattr(error, "kind", None) in RETRYABLE_ERROR_KINDS

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RetryPolicy":
        return cls(**config_kwargs(cls, payload, "retry"))


@dataclass(frozen=True, slots=True)
class ApiCredential:
    """An API key held in memory only.

    The key is excluded from repr and must never reach any file, log line,
    cache entry, or serialized report. Request fingerprints exclude it by
    construction.
    """

    key: str = field(repr=False)

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("credential key must be non-empty")

    @classmethod
    def from_env(cls, variable: str = "REVIEWLENS_API_KEY") -> Optional["ApiCredential"]:
        import os

        value = os.environ.get(variable, "").strip()
        return cls(key=value) if value else None


def fingerprint(request: ChatRequest) -> str:
    """Stable content hash identifying a request across runs and processes.

    Covers model, both prompts, temperature, and response format; never the
    credential. Prompt template edits (and the version marker rendered into
    the system prompt) therefore change the fingerprint.
    """
    payload = {
        "model": request.model,
        "system_prompt": request.system_prompt,
        "user_prompt": request.user_prompt,
        "temperature": request.temperature,
        "response_format": request.response_format.value,
    }
    canonical = json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@runtime_checkable
class ChatBackend(Protocol):
    """Answers one chat request. A backend that needs a credential is built
    with it, so a request never carries one."""

    def complete(self, request: ChatRequest) -> ChatResponse:
        ...


class CallCounter:
    """Thread-safe count of completed backend invocations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls = 0

    def bump(self) -> None:
        with self._lock:
            self._calls += 1

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls


class _Response:
    """Status and body of one exchange, read the way ``HttpBackend`` reads
    them: ``status_code`` and ``json()``."""

    __slots__ = ("status_code", "content")

    def __init__(self, status_code: int, content: bytes):
        self.status_code = status_code
        self.content = content

    def json(self) -> Any:
        return json.loads(self.content)


def _json_body(payload: Any) -> bytes:
    return json.dumps(payload, allow_nan=False).encode("utf-8")


def _is_dropped(conn: http.client.HTTPConnection) -> bool:
    """True when an idle connection can no longer carry a request: an idle
    keep-alive socket has nothing to read, so a readable one was closed by
    the server."""
    if conn.sock is None:
        return True
    readable, _, _ = select.select([conn.sock], [], [], 0)
    return bool(readable)


class _Origin:
    """How to reach one ``scheme://host:port``, and its idle connections.

    The proxy environment is read once, here, rather than on every request.
    Idle connections form a LIFO list under a lock shared by all threads, so
    the most recently used socket, the one least likely to have timed out on
    the server, is reused first.
    """

    def __init__(self, scheme: str, netloc: str):
        self.scheme = scheme
        self.netloc = netloc
        self._tls = ssl.create_default_context() if scheme == "https" else None
        self._proxy: str | None = None
        self._proxy_auth: dict[str, str] = {}
        # A plain-HTTP proxy takes the absolute-form target and the proxy
        # credentials with each request; HTTPS sends them once, in CONNECT.
        self.target_prefix = ""
        self.request_headers: dict[str, str] = {}
        proxy = urllib.request.getproxies().get(scheme)
        if proxy and not urllib.request.proxy_bypass(netloc):
            parsed = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if parsed.scheme != "http" or not parsed.hostname:
                raise http.client.InvalidURL(f"unsupported {scheme} proxy {parsed.scheme}://{parsed.hostname}")
            self._proxy = parsed.netloc.rpartition("@")[2]
            if parsed.username is not None:
                token = f"{unquote(parsed.username)}:{unquote(parsed.password or '')}".encode()
                self._proxy_auth["Proxy-Authorization"] = "Basic " + base64.b64encode(token).decode()
            if scheme == "http":
                self.target_prefix = f"http://{netloc}"
                self.request_headers = self._proxy_auth
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def connect(self, timeout: float | None) -> http.client.HTTPConnection:
        """A new connection; it connects on its first request."""
        if self.scheme == "http":
            return http.client.HTTPConnection(self._proxy or self.netloc, timeout=timeout)
        if self._proxy is None:
            return http.client.HTTPSConnection(self.netloc, timeout=timeout, context=self._tls)
        conn = http.client.HTTPSConnection(self._proxy, timeout=timeout, context=self._tls)
        conn.set_tunnel(self.netloc, headers=self._proxy_auth)
        return conn

    def checkout(self) -> http.client.HTTPConnection | None:
        """An idle connection still open at the server, or None."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if not _is_dropped(conn):
                return conn
            conn.close()

    def checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            self._idle.append(conn)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class KeepAliveSession:
    """Stdlib HTTP/1.1 client for the one call ``HttpBackend`` makes:
    ``post(url, json=, headers=, timeout=)``, answering ``status_code`` and
    ``json()``.

    Connections are pooled per origin and shared by all threads; each is
    checked out for exactly one request and response. A request is never
    sent twice: a pooled connection the server closed while idle is
    discarded before use, and an ``OSError`` or ``http.client.HTTPException``
    closes the connection and propagates. ``HTTP(S)_PROXY`` and ``NO_PROXY``
    are read once per origin; TLS verifies against OpenSSL's default CA
    store (``SSL_CERT_FILE``, ``SSL_CERT_DIR``).
    """

    def __init__(self) -> None:
        self._user_agent = f"reviewlens/{__version__}"
        self._origins: dict[tuple[str, str], _Origin] = {}
        self._lock = threading.Lock()

    def _origin(self, scheme: str, netloc: str) -> _Origin:
        with self._lock:
            origin = self._origins.get((scheme, netloc))
            if origin is None:
                origin = self._origins[(scheme, netloc)] = _Origin(scheme, netloc)
        return origin

    def post(
        self,
        url: str,
        json: Any = None,  # noqa: A002 - the keyword HttpBackend passes
        headers: dict[str, str] | None = None,
        timeout: float | None = None,
    ) -> _Response:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise http.client.InvalidURL(f"unsupported URL {url!r}")
        origin = self._origin(parts.scheme, parts.netloc.rpartition("@")[2])
        target = origin.target_prefix + (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        all_headers = {"User-Agent": self._user_agent, **origin.request_headers, **(headers or {})}
        body = _json_body(json)
        conn = origin.checkout()
        if conn is None:
            conn = origin.connect(timeout)
        else:
            conn.sock.settimeout(timeout)
        try:
            conn.request("POST", target, body=body, headers=all_headers)
            response = conn.getresponse()
            content = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            origin.checkin(conn)
        return _Response(response.status, content)

    def close(self) -> None:
        """Close every idle connection. The session stays usable."""
        with self._lock:
            origins = list(self._origins.values())
        for origin in origins:
            origin.close()


def _default_session() -> KeepAliveSession:
    return KeepAliveSession()


class HttpBackend:
    """Live chat-completions backend: one JSON POST with bearer auth. It
    holds the API credential, which only its Authorization header reads."""

    def __init__(
        self,
        base_url: str,
        credential: ApiCredential | None,
        *,
        timeout_s: float = 60.0,
        session: Any | None = None,
    ):
        if credential is None:
            raise AuthFailedError("live backend requires an API credential")
        self._credential = credential
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._session = session if session is not None else _default_session()
        self._counter = CallCounter()

    @property
    def calls(self) -> int:
        return self._counter.calls

    def close(self) -> None:
        """Close the session's pooled connections."""
        self._session.close()

    def complete(self, request: ChatRequest) -> ChatResponse:
        self._counter.bump()
        payload: dict[str, Any] = {
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
            "temperature": request.temperature,
        }
        if request.response_format is ResponseFormat.JSON_OBJECT:
            payload["response_format"] = {"type": "json_object"}
        headers = {
            "Authorization": f"Bearer {self._credential.key}",
            "Content-Type": "application/json",
        }
        try:
            response = self._session.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=self.timeout_s,
            )
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"request failed: {exc}") from exc
        if response.status_code == 429:
            raise RateLimitedError("provider throttled the request (HTTP 429)")
        if response.status_code in (401, 403):
            raise AuthFailedError(f"credential rejected (HTTP {response.status_code})")
        if response.status_code >= 400:
            raise TransportError(f"provider returned HTTP {response.status_code}")
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unexpected provider payload shape: {exc}") from exc
        if not isinstance(text, str):
            raise TransportError("provider returned a non-string message content")
        return ChatResponse(text=text, model=str(body.get("model", request.model)))


class ReplayBackend:
    """Serves recorded responses from a fixture directory; never touches the
    network. A missing fixture is a test-setup error, not a retry case."""

    def __init__(self, fixtures_dir: Path | str):
        self._store = DiskResponseCache(fixtures_dir)
        self._counter = CallCounter()
        if not self._store.segments and any(Path(fixtures_dir).glob("*.json")):
            self._store.close()
            raise DataFormatError(
                f"fixture directory {fixtures_dir} holds one JSON file per response, a layout "
                "no longer read; re-record it with `reviewlens record-fixtures`, or rebuild the "
                "bundled corpus with scripts/build_fixture_corpus.py"
            )

    @property
    def calls(self) -> int:
        return self._counter.calls

    def complete(self, request: ChatRequest) -> ChatResponse:
        self._counter.bump()
        digest = fingerprint(request)
        response, problem = self._store.load(digest)
        if response is None:
            detail = problem or "no recorded response"
            raise NoFixtureError(
                f"{detail} for fingerprint {digest[:16]}... (model {request.model})"
            )
        return response


class RecordingBackend:
    """Pass-through wrapper that captures every live response as a fixture.
    ``close`` compacts the fixture directory into its one segment."""

    def __init__(self, inner: ChatBackend, fixtures_dir: Path | str):
        self.inner = inner
        self._store = DiskResponseCache(fixtures_dir)
        self._counter = CallCounter()

    @property
    def calls(self) -> int:
        return self._counter.calls

    def close(self) -> None:
        self._store.compact()

    def complete(self, request: ChatRequest) -> ChatResponse:
        self._counter.bump()
        response = self.inner.complete(request)
        self._store.put(fingerprint(request), response)
        return response


def complete_with_retry(
    attempt: Callable[[], T],
    policy: RetryPolicy,
    *,
    stats: Any | None = None,
    idle: Callable[[float], None] | None = None,
) -> T:
    """Run ``attempt`` until it returns, with exponential backoff between tries.

    The request path's only retry loop: transport errors, throttling and
    malformed output share one budget of ``policy.max_attempts``. Raises
    ExhaustedRetriesError wrapping the last error once the budget is spent;
    non-retryable errors propagate immediately. Each re-attempt is recorded
    on ``stats`` when one is provided.

    ``idle(seconds)``, when given, spends a backoff in place of
    ``time.sleep`` (the pipeline runs other queued work in it) and must not
    return before ``seconds`` have passed. A backoff after throttling always
    sleeps, so a throttled provider sees the load drop.
    """
    last_error: BaseException | None = None
    for retry in range(policy.max_attempts):
        if retry:
            delay = policy.delay_ms(retry) / 1000.0
            if delay > 0:
                if idle is None or getattr(last_error, "kind", None) == RateLimitedError.kind:
                    time.sleep(delay)
                else:
                    idle(delay)
            if stats is not None:
                stats.record("retries")
        try:
            return attempt()
        except (GatewayError, MalformedOutputError) as exc:
            if not policy.is_retryable(exc):
                raise
            last_error = exc
    raise ExhaustedRetriesError(policy.max_attempts, last_error)


def lookup_or_call(
    request: ChatRequest,
    digest: str,
    gateway: ChatBackend,
    cache: Any | None = None,
    *,
    stats: Any | None = None,
    diagnostics: list[str] | None = None,
) -> ChatResponse:
    """One attempt: serve ``request`` (fingerprinted as ``digest``) from the
    cache when possible, else call the backend once and store the answer.

    A cache hit performs zero gateway calls and records a cache hit. A
    corrupt cache entry degrades to a miss with a diagnostic note.
    """
    if cache is not None:
        cached = cache.get(digest, diagnostics=diagnostics)
        if cached is not None:
            if stats is not None:
                stats.record("cache_hits")
            return cached
    response = gateway.complete(request)
    if cache is not None:
        cache.put(digest, response)
    return response


def complete_parsed(
    request: ChatRequest,
    parser: Callable[[str, list[str]], T],
    *,
    gateway: ChatBackend,
    policy: RetryPolicy | None = None,
    cache: Any | None = None,
    stats: Any | None = None,
    diagnostics: list[str] | None = None,
    idle: Callable[[float], None] | None = None,
) -> T:
    """Resolve a request into parsed output: fingerprint once, then retry
    one attempt of cache-or-call plus parse under ``complete_with_retry``,
    which spends its backoffs in ``idle`` when one is given.

    ``parser`` receives the response text plus a scratch diagnostics list
    that is merged into ``diagnostics`` only when parsing succeeds, so notes
    from abandoned attempts never leak into the run record. A parse failure
    evicts the cached response first: re-sampling is the remedy, and a bad
    answer must not be pinned by the cache.
    """
    digest = fingerprint(request)

    def attempt() -> T:
        response = lookup_or_call(request, digest, gateway, cache, stats=stats, diagnostics=diagnostics)
        scratch: list[str] = []
        try:
            parsed = parser(response.text, scratch)
        except MalformedOutputError:
            if cache is not None:
                cache.evict(digest)
            raise
        if diagnostics is not None:
            diagnostics.extend(scratch)
        return parsed

    return complete_with_retry(attempt, policy or RetryPolicy(), stats=stats, idle=idle)
