"""Chat-completion gateway with retries, fingerprinting, and record/replay.

Responsibilities:
  * a provider-agnostic request/response pair for single-turn chat calls
  * the declarative retry policy
  * a stable content fingerprint identifying a request (the credential is
    deliberately outside the identity)
  * interchangeable backends that only answer ``complete(request)``, with
    no count of their own (a run counts its calls in ``CallStats``): live
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
Gemini-style endpoints accept. It resolves its one endpoint when it is
built (``_Origin``): the URL and proxy checks, the request target and every
constant line of the request head. ``http.client`` only opens connections,
which the backend pools and keeps alive; each request goes out in one
``sendall`` and the response is read by a small parser, which takes the
framings of RFC 9112 §6 (``Content-Length``, chunked, or the connection
closing) and refuses anything else.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import http.client
import json
import re
import select
import socket
import ssl
import threading
import time
import urllib.request
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Protocol, TypeVar, runtime_checkable
from urllib.parse import SplitResult, unquote, urlsplit

from . import __version__
from .cache import ChatResponse, DiskResponseCache
from .errors import (
    AuthFailedError,
    DataFormatError,
    ExhaustedRetriesError,
    MalformedOutputError,
    NoFixtureError,
    RateLimitedError,
    TransportError,
)
from .inputs import check_int, check_number, config_kwargs

T = TypeVar("T")


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


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Declarative retry behaviour shared by all stages: how many attempts a
    request gets and how long to wait between them. Which errors are retried
    is fixed by ``complete_with_retry``."""

    max_attempts: int = 3
    base_delay_ms: int = 250
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        check_int(self.max_attempts, "max_attempts", 1)
        check_int(self.base_delay_ms, "base_delay_ms", 0)
        backoff_factor = check_number(self.backoff_factor, "backoff_factor", 1.0)
        object.__setattr__(self, "backoff_factor", backoff_factor)

    def delay_ms(self, retry_index: int) -> float:
        """Delay before re-attempt number ``retry_index`` (1-based).

        Grows as base * factor**(retry_index - 1); nondecreasing since the
        factor is >= 1.
        """
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        return self.base_delay_ms * self.backoff_factor ** (retry_index - 1)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Any) -> "RetryPolicy":
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
        # A bearer token is printable ASCII; CR or LF would split the request
        # head. The message must not quote the key.
        if not (self.key.isascii() and self.key.isprintable()):
            raise ValueError("credential key holds a control or non-ASCII character")

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


# http.client's limits on a response head: bytes per line, header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_RECV_BYTES = 65536
# No request asks for an interim (1xx) response, so one is refused.
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) ([2-9]\d\d)(?: .*)?")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_VISIBLE_ASCII = re.compile(r"[!-~]+")
_USER_AGENT = f"reviewlens/{__version__}"


class _ResponseReader:
    """Reads one HTTP/1.1 response off a socket (RFC 9112), with
    http.client's limits of ``_MAX_LINE`` bytes per line and
    ``_MAX_HEADERS`` headers. The body is framed by ``Content-Length``,
    ``Transfer-Encoding: chunked``, or the server closing the connection;
    anything else raises an ``http.client.HTTPException``."""

    __slots__ = ("_sock", "_buf")

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray()

    def _fill(self) -> None:
        chunk = self._sock.recv(_RECV_BYTES)
        if not chunk:
            raise http.client.IncompleteRead(bytes(self._buf))
        self._buf += chunk

    def _line(self, what: str) -> bytes:
        buf = self._buf
        while (end := buf.find(b"\n")) < 0:
            if len(buf) > _MAX_LINE:
                raise http.client.LineTooLong(what)
            self._fill()
        if end >= _MAX_LINE:
            raise http.client.LineTooLong(what)
        line = bytes(buf[:end])
        del buf[: end + 1]
        return line[:-1] if line.endswith(b"\r") else line

    def _take(self, size: int) -> bytes:
        while len(self._buf) < size:
            self._fill()
        data = bytes(self._buf[:size])
        del self._buf[:size]
        return data

    def _chunked(self) -> bytes:
        parts = []
        while True:
            field = self._line("chunk size").partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(field):
                raise http.client.HTTPException(f"invalid chunk size {field[:20]!r}")
            size = int(field, 16)
            if not size:
                break
            parts.append(self._take(size))
            if self._line("chunk data"):
                raise http.client.HTTPException("chunk data longer than its size")
        for _ in range(_MAX_HEADERS + 1):
            if not self._line("trailer line"):
                return b"".join(parts)
        raise http.client.HTTPException(f"got more than {_MAX_HEADERS} trailer lines")

    def _to_close(self) -> bytes:
        while chunk := self._sock.recv(_RECV_BYTES):
            self._buf += chunk
        return self._take(len(self._buf))

    def read(self) -> tuple[int, bytes, bool]:
        """The status, the body, and whether the connection can carry
        another request: it stays open and no byte came past the body."""
        line = self._line("status line")
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise http.client.BadStatusLine(repr(line[:100]))
        close = match[1] == b"0"  # an HTTP/1.0 connection is never reused
        length: int | None = None
        chunked = False
        for _ in range(_MAX_HEADERS + 1):
            line = self._line("header line")
            if not line:
                break
            name, colon, value = line.partition(b":")
            if not colon or not name or name != name.strip():
                raise http.client.HTTPException(f"malformed header line {line[:100]!r}")
            name, value = name.lower(), value.strip()
            if name == b"content-length":
                if not value.isdigit() or length not in (None, int(value)):
                    raise http.client.HTTPException(f"invalid Content-Length {value[:20]!r}")
                length = int(value)
            elif name == b"transfer-encoding":
                if value.lower() != b"chunked":
                    raise http.client.UnknownTransferEncoding(value[:100].decode("latin-1"))
                chunked = True
            elif name == b"connection":
                close = close or b"close" in {token.strip() for token in value.lower().split(b",")}
        else:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
        if chunked:
            body = self._chunked()
            close = close or length is not None  # both framings: do not trust the rest
        elif length is not None:
            body = self._take(length)
        else:
            body, close = self._to_close(), True
        return int(match[2]), body, not close and not self._buf


def _is_dropped(sock: socket.socket) -> bool:
    """True when an idle connection can no longer carry a request: an idle
    keep-alive socket has nothing to read, so a readable one was closed by
    the server (or sent bytes no request asked for). ``poll`` takes any fd,
    where ``select`` fails on one of 1024 or more."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _split_url(url: str, label: str, schemes: tuple[str, ...]) -> SplitResult:
    """``url`` split, if it is visible ASCII with one of ``schemes``, a host
    and a port from 0 to 65535. Otherwise ValueError, whose message starts
    with ``label`` and names at most the scheme and host, never userinfo."""
    if not _VISIBLE_ASCII.fullmatch(url):
        raise ValueError(f"{label} holds a space, a control character or a non-ASCII character")
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number in range
    except ValueError:
        raise ValueError(f"{label} has a host or port that cannot be parsed") from None
    if parts.scheme not in schemes or not parts.hostname:
        where = f"{parts.scheme}://{parts.hostname or ''}"
        raise ValueError(f"{label} {where} does not name an {' or '.join(schemes)} host")
    return parts


class _Origin:
    """The one URL an ``HttpBackend`` posts to, resolved once, and the idle
    connections to it: ``endpoint`` appended to the path of ``base_url``
    (trailing slashes stripped), with ``base_url``'s query string after it.

    ``__init__`` checks the URL, reads the proxy environment and builds
    every line of the request head but Content-Length: the request line,
    Host, Accept-Encoding, User-Agent, Proxy-Authorization through an HTTP
    proxy, then ``headers`` after Content-Length. A URL or proxy that
    cannot be used raises ValueError (see ``_split_url``) before any
    connection is made.

    Idle sockets form a LIFO list under a lock shared by all threads, so
    the most recently used socket, the one least likely to have timed out
    on the server, is reused first.
    """

    def __init__(self, base_url: str, endpoint: str, headers: str):
        parts = _split_url(base_url, "the URL", ("http", "https"))
        self.scheme, self.netloc = parts.scheme, parts.netloc.rpartition("@")[2]
        self._tls = ssl.create_default_context() if self.scheme == "https" else None
        self._proxy: str | None = None
        self._proxy_auth: dict[str, str] = {}
        target = parts.path.rstrip("/") + endpoint + (f"?{parts.query}" if parts.query else "")
        proxy_lines = ""
        proxy = urllib.request.getproxies().get(self.scheme)
        if proxy and not urllib.request.proxy_bypass(self.netloc):
            proxy_parts = _split_url(
                proxy if "://" in proxy else f"http://{proxy}", f"the {self.scheme} proxy", ("http",)
            )
            self._proxy = proxy_parts.netloc.rpartition("@")[2]
            if proxy_parts.username is not None:
                token = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}".encode()
                self._proxy_auth["Proxy-Authorization"] = "Basic " + base64.b64encode(token).decode()
            # A plain-HTTP proxy takes the absolute-form target and the proxy
            # credentials with each request; HTTPS sends them once, in CONNECT.
            if self.scheme == "http":
                target = f"http://{self.netloc}{target}"
                proxy_lines = "".join(f"{name}: {value}\r\n" for name, value in self._proxy_auth.items())
        host = self.netloc.removesuffix(":443" if self.scheme == "https" else ":80")
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            f"User-Agent: {_USER_AGENT}\r\n{proxy_lines}Content-Length: "
        ).encode("ascii")
        self._tail = f"\r\n{headers}\r\n".encode("latin-1")
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()

    def _connect(self, timeout: float) -> socket.socket:
        """A new socket, opened by http.client: TCP_NODELAY, TLS with
        certificate and host name checks, and the proxy's CONNECT tunnel."""
        if self.scheme == "http":
            conn = http.client.HTTPConnection(self._proxy or self.netloc, timeout=timeout)
        elif self._proxy is None:
            conn = http.client.HTTPSConnection(self.netloc, timeout=timeout, context=self._tls)
        else:
            conn = http.client.HTTPSConnection(self._proxy, timeout=timeout, context=self._tls)
            conn.set_tunnel(self.netloc, headers=self._proxy_auth)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        return conn.sock

    def _checkout(self) -> socket.socket | None:
        """An idle socket still open at the server, or None."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                sock = self._idle.pop()
            if not _is_dropped(sock):
                return sock
            sock.close()

    def post(self, body: bytes, timeout: float) -> tuple[int, bytes]:
        """Send one request carrying ``body`` and read the response's status
        and body.

        The request goes out in one ``sendall`` of head and body, and
        ``_ResponseReader`` parses the response. Each socket carries exactly
        one request and response at a time, and goes back to the pool only
        when the response left it open with no byte unread. A request is
        never sent twice: a pooled socket the server closed while idle is
        discarded before use, and an ``OSError`` or
        ``http.client.HTTPException`` closes the socket and propagates.
        ``timeout`` applies to a reused socket too.
        """
        sock = self._checkout()
        try:
            if sock is None:
                sock = self._connect(timeout)
            else:
                sock.settimeout(timeout)
            sock.sendall(b"%b%d%b%b" % (self._head, len(body), self._tail, body))
            status, content, reusable = _ResponseReader(sock).read()
        except BaseException:
            if sock is not None:
                sock.close()
            raise
        if reusable:
            with self._lock:
                self._idle.append(sock)
        else:
            sock.close()
        return status, content

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()


class HttpBackend:
    """Live chat-completions backend: one JSON POST with bearer auth to
    ``<base_url>/chat/completions`` (a query string in ``base_url`` goes
    after it), over keep-alive connections pooled and shared by all threads.

    It holds the API credential, which only the Authorization line of its
    request head reads. The endpoint is resolved once, here: a base URL or
    proxy that cannot be used raises ValueError before any connection is
    made. ``HTTP(S)_PROXY`` and
    ``NO_PROXY`` are read here too; TLS verifies against OpenSSL's default
    CA store (``SSL_CERT_FILE``, ``SSL_CERT_DIR``).
    """

    def __init__(self, base_url: str, credential: ApiCredential | None, *, timeout_s: float = 60.0):
        if credential is None:
            raise AuthFailedError("live backend requires an API credential")
        self._origin = _Origin(
            base_url, "/chat/completions",
            f"Authorization: Bearer {credential.key}\r\nContent-Type: application/json\r\n",
        )
        self.timeout_s = timeout_s

    def close(self) -> None:
        """Close the pooled connections. The backend stays usable."""
        self._origin.close()

    def complete(self, request: ChatRequest) -> ChatResponse:
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
        try:
            status, content = self._origin.post(
                json.dumps(payload, allow_nan=False).encode("utf-8"), self.timeout_s
            )
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"request failed: {exc}") from exc
        if status == 429:
            raise RateLimitedError("provider throttled the request (HTTP 429)")
        if status in (401, 403):
            raise AuthFailedError(f"credential rejected (HTTP {status})")
        if status >= 400:
            raise TransportError(f"provider returned HTTP {status}")
        try:
            body = json.loads(content)
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
        if not self._store.segments and any(Path(fixtures_dir).glob("*.json")):
            self._store.close()
            raise DataFormatError(
                f"fixture directory {fixtures_dir} holds one JSON file per response, a layout "
                "no longer read; re-record it with `reviewlens record-fixtures`, or rebuild the "
                "bundled corpus with scripts/build_fixture_corpus.py"
            )

    def complete(self, request: ChatRequest) -> ChatResponse:
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

    def close(self) -> None:
        self._store.compact()

    def complete(self, request: ChatRequest) -> ChatResponse:
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

    The request path's only retry loop: ``TransportError``,
    ``RateLimitedError`` and ``MalformedOutputError`` share one budget of
    ``policy.max_attempts``. Raises ExhaustedRetriesError wrapping the last
    error once the budget is spent; any other error propagates at once. Each
    re-attempt is recorded on ``stats`` when one is provided.

    ``idle(seconds)``, when given, spends every backoff in place of
    ``time.sleep`` (the pipeline runs other queued work in it) and must not
    return before ``seconds`` have passed. Throttling is no exception: the
    caller lowers its load through its own limit, not through this loop.
    """
    last_error: BaseException | None = None
    for retry in range(policy.max_attempts):
        if retry:
            delay = policy.delay_ms(retry) / 1000.0
            if delay > 0:
                (time.sleep if idle is None else idle)(delay)
            if stats is not None:
                stats.record("retries")
        try:
            return attempt()
        except (TransportError, RateLimitedError, MalformedOutputError) as exc:
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
