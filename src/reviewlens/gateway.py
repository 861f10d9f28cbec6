"""Chat-completion gateway with retries, fingerprinting, and record/replay.

Responsibilities:
  * a provider-agnostic request/response pair for single-turn chat calls
  * the declarative retry policy, whose caps (100 attempts, an hour of
    backoff in all) hold however it is built
  * a stable content fingerprint identifying a request (the credential is
    deliberately outside the identity)
  * interchangeable backends that only answer ``complete(request)``, with
    no count of their own (a run counts its calls in ``CallStats``): live
    HTTP and replay-from-fixtures. The live backend is built with the API
    credential and is the only object that holds it. A fixture directory is
    a response log of ``cache.DiskResponseCache``: recording is a live run
    whose response cache is that directory, and replay reads it
  * the request path every pipeline stage uses, one function per job:
    ``complete_parsed`` fingerprints the request once and builds one
    attempt; ``lookup_or_call`` is that attempt's cache-or-call;
    ``complete_with_retry`` is the only retry loop, with exponential
    backoff driven by a declarative policy. The two are generators that
    yield each backoff to their caller instead of sleeping, and return the
    parsed output. Transport errors, throttling and malformed output share
    one budget of ``max_attempts`` per request; a malformed answer is
    evicted from the cache and re-asked at once. None of them counts
    anything: a caller sees each retry as a yielded backoff, and each call
    through the ``gateway`` it passes in.

The live backend speaks the common chat-completions JSON dialect: a single
POST with system/user messages and bearer auth, which both OpenAI-style and
Gemini-style endpoints accept. It resolves its one endpoint when it is
built (``_Origin``): the URL and proxy checks, the CONNECT head and every
constant line of the request head. It opens, pools and keeps alive its own
connections; each request goes out in one ``sendall`` and each response,
a proxy's CONNECT reply too, is read by a small parser, which takes the
framings of RFC 9112 §6 (``Content-Length``, chunked, or the connection
closing) and refuses anything else.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import json
import re
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Generator, Optional, Protocol, TypeVar
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
from .inputs import check_int, check_number

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


# The most attempts a request may make, and the most it may wait between
# them, in all: no policy makes a run that never ends.
_MAX_ATTEMPTS = 100
_MAX_TOTAL_BACKOFF_MS = 3_600_000


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Declarative retry behaviour shared by all stages: how many attempts a
    request gets, at most ``_MAX_ATTEMPTS``, and how long to wait between
    them, at most ``_MAX_TOTAL_BACKOFF_MS`` in all, however it is built.
    Which errors are retried is fixed by ``complete_with_retry``."""

    max_attempts: int = 3
    base_delay_ms: int = 250
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        check_int(self.max_attempts, "max_attempts", 1)
        check_int(self.base_delay_ms, "base_delay_ms", 0)
        backoff_factor = check_number(self.backoff_factor, "backoff_factor", 1.0)
        object.__setattr__(self, "backoff_factor", backoff_factor)
        if self.max_attempts > _MAX_ATTEMPTS:
            raise ValueError(f"retry: max_attempts must be at most {_MAX_ATTEMPTS}")
        # Step by step: a float product past the range is inf, where ** raises.
        delay, total = float(self.base_delay_ms), 0.0
        for _ in range(1, self.max_attempts):
            total, delay = total + delay, delay * backoff_factor
        if total > _MAX_TOTAL_BACKOFF_MS:
            raise ValueError(f"retry: its backoffs add up to more than {_MAX_TOTAL_BACKOFF_MS} ms")

    def delay_ms(self, retry: int) -> float:
        """Delay before retry number ``retry``, from 1 to ``max_attempts - 1``:
        base * factor**(retry - 1), nondecreasing since the factor is >= 1,
        and 0 for a zero base."""
        if not 1 <= retry < self.max_attempts:
            raise ValueError(f"retry {retry} is outside 1 to {self.max_attempts - 1}")
        return self.base_delay_ms * self.backoff_factor ** (retry - 1) if self.base_delay_ms else 0.0


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


class _ProtocolError(ConnectionError):
    """A response ``_ResponseReader`` refuses, or a tunnel a proxy refused."""


class _ResponseReader:
    """Reads one HTTP/1.1 response off a socket (RFC 9112), with
    http.client's limits of ``_MAX_LINE`` bytes per line and
    ``_MAX_HEADERS`` headers. The body is framed by ``Content-Length``,
    ``Transfer-Encoding: chunked``, or the server closing the connection;
    anything else raises ``_ProtocolError``."""

    __slots__ = ("_sock", "_buf", "_deadline")

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock = sock
        self._buf = bytearray()
        self._deadline = deadline

    def _recv(self) -> bytes:
        self._sock.settimeout(_time_left(self._deadline))
        return self._sock.recv(_RECV_BYTES)

    def _fill(self) -> None:
        chunk = self._recv()
        if not chunk:
            raise _ProtocolError("the connection closed mid-response")
        self._buf += chunk

    def _line(self, what: str) -> bytes:
        buf = self._buf
        while (end := buf.find(b"\n")) < 0 and len(buf) <= _MAX_LINE:
            self._fill()
        if not 0 <= end < _MAX_LINE:
            raise _ProtocolError(f"{what} longer than {_MAX_LINE} bytes")
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
                raise _ProtocolError(f"invalid chunk size {field[:20]!r}")
            size = int(field, 16)
            if not size:
                break
            parts.append(self._take(size))
            if self._line("chunk data"):
                raise _ProtocolError("chunk data longer than its size")
        for _ in range(_MAX_HEADERS + 1):
            if not self._line("trailer line"):
                return b"".join(parts)
        raise _ProtocolError(f"got more than {_MAX_HEADERS} trailer lines")

    def _to_close(self) -> bytes:
        while chunk := self._recv():
            self._buf += chunk
        return self._take(len(self._buf))

    def head(self) -> tuple[int, bool, int | None, bool]:
        """The status, whether the connection closes after this response,
        the Content-Length, and whether the body is chunked."""
        line = self._line("status line")
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise _ProtocolError(f"malformed status line {line[:100]!r}")
        close = match[1] == b"0"  # an HTTP/1.0 connection is never reused
        length: int | None = None
        chunked = False
        for _ in range(_MAX_HEADERS + 1):
            line = self._line("header line")
            if not line:
                break
            name, colon, value = line.partition(b":")
            if not colon or not name or name != name.strip():
                raise _ProtocolError(f"malformed header line {line[:100]!r}")
            name, value = name.lower(), value.strip()
            if name == b"content-length":
                if not value.isdigit() or length not in (None, int(value)):
                    raise _ProtocolError(f"invalid Content-Length {value[:20]!r}")
                length = int(value)
            elif name == b"transfer-encoding":
                if value.lower() != b"chunked":
                    raise _ProtocolError(f"unknown transfer coding {value[:100]!r}")
                chunked = True
            elif name == b"connection":
                close = close or b"close" in {token.strip() for token in value.lower().split(b",")}
        else:
            raise _ProtocolError(f"got more than {_MAX_HEADERS} headers")
        return int(match[2]), close, length, chunked

    def read(self) -> tuple[int, bytes, bool]:
        """The status, the body, and whether the connection can carry
        another request: it stays open and no byte came past the body."""
        status, close, length, chunked = self.head()
        if chunked:
            body = self._chunked()
            close = close or length is not None  # both framings: do not trust the rest
        elif length is not None:
            body = self._take(length)
        else:
            body, close = self._to_close(), True
        return status, body, not close and not self._buf


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` on the monotonic clock; TimeoutError once
    none are left."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out: the call took longer than its timeout")
    return left


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
    proxy, then ``headers`` after Content-Length. Through an HTTPS proxy,
    the CONNECT head carries Host and Proxy-Authorization instead (RFC 9110
    §9.3.6). A URL or proxy that cannot be used raises ValueError (see
    ``_split_url``) before any connection is made.

    Idle sockets form a LIFO list under a lock shared by all threads, so
    the most recently used socket, the one least likely to have timed out
    on the server, is reused first.
    """

    def __init__(self, base_url: str, endpoint: str, headers: str):
        import ssl  # imported here, so that a run without a live backend never loads them
        import urllib.request
        parts = _split_url(base_url, "the URL", ("http", "https"))
        scheme, netloc = parts.scheme, parts.netloc.rpartition("@")[2]
        port = parts.port if parts.port is not None else 443 if scheme == "https" else 80
        self._hostname, self._address = parts.hostname, (parts.hostname, port)
        self._tls = ssl.create_default_context() if scheme == "https" else None
        self._connect_head: bytes | None = None
        target = parts.path.rstrip("/") + endpoint + (f"?{parts.query}" if parts.query else "")
        proxy_lines = ""
        proxy = urllib.request.getproxies().get(scheme)
        if proxy and not urllib.request.proxy_bypass(netloc):
            proxy_parts = _split_url(
                proxy if "://" in proxy else f"http://{proxy}", f"the {scheme} proxy", ("http",)
            )
            self._address = (proxy_parts.hostname, 80 if proxy_parts.port is None else proxy_parts.port)
            if proxy_parts.username is not None:
                token = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}".encode()
                proxy_lines = f"Proxy-Authorization: Basic {base64.b64encode(token).decode()}\r\n"
            # A plain-HTTP proxy takes the absolute-form target and the proxy
            # credentials with each request; HTTPS sends them once, in CONNECT.
            if self._tls is None:
                target = f"http://{netloc}{target}"
            else:
                name = f"[{self._hostname}]" if ":" in self._hostname else self._hostname
                connect = f"CONNECT {name}:{port} HTTP/1.1\r\nHost: {name}:{port}\r\n{proxy_lines}\r\n"
                self._connect_head, proxy_lines = connect.encode(), ""
        host = netloc.removesuffix(":443" if scheme == "https" else ":80")
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            f"User-Agent: {_USER_AGENT}\r\n{proxy_lines}Content-Length: "
        ).encode("ascii")
        self._tail = f"\r\n{headers}\r\n".encode("latin-1")
        self._pooled: list[socket.socket] = []
        self._lock = threading.Lock()

    def _connect(self, deadline: float) -> socket.socket:
        """A new TCP_NODELAY socket, through a proxy's tunnel and verified TLS
        where the URL needs them; each step gets the time left to ``deadline``."""
        sock = socket.create_connection(self._address, _time_left(deadline))
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._connect_head is not None:
                sock.sendall(self._connect_head)  # a few bytes: never waits
                reader = _ResponseReader(sock, deadline)
                # The tunnel's first byte is the server's, for TLS to read.
                if (status := reader.head()[0]) != 200 or reader._buf:
                    raise _ProtocolError(f"no tunnel: HTTP {status} and {len(reader._buf)} more bytes")
            if self._tls is not None:
                sock.settimeout(_time_left(deadline))
                sock = self._tls.wrap_socket(sock, server_hostname=self._hostname)
        except BaseException:
            sock.close()
            raise
        return sock

    def _checkout(self) -> socket.socket | None:
        """An idle socket still open at the server, or None."""
        while True:
            with self._lock:
                if not self._pooled:
                    return None
                sock = self._pooled.pop()
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
        discarded before use, and an ``OSError`` (``_ProtocolError`` among
        them) closes the socket and propagates. ``timeout`` bounds the whole
        call, on a reused socket too: each socket operation, from connect
        through the tunnel and the TLS handshake to the last read, gets what
        is left of it, and past it TimeoutError is raised, so a slow proxy
        or a trickled reply cannot hold the call.
        """
        deadline = time.monotonic() + timeout
        sock = self._checkout()
        try:
            if sock is None:
                sock = self._connect(deadline)
            sock.settimeout(_time_left(deadline))
            sock.sendall(b"%b%d%b%b" % (self._head, len(body), self._tail, body))
            status, content, reusable = _ResponseReader(sock, deadline).read()
        except BaseException:
            if sock is not None:
                sock.close()
            raise
        if reusable:
            with self._lock:
                self._pooled.append(sock)
        else:
            sock.close()
        return status, content

    def close(self) -> None:
        with self._lock:
            idle, self._pooled = self._pooled, []
        for sock in idle:
            sock.close()


class HttpBackend:
    """Live chat-completions backend: one JSON POST with bearer auth to
    ``<base_url>/chat/completions`` (a query string in ``base_url`` goes
    after it), over keep-alive connections pooled and shared by all threads.

    It holds the API credential, which only the Authorization line of its
    request head reads. The endpoint is resolved once, here: a base URL or
    proxy that cannot be used raises ValueError before any connection is
    made. ``HTTP(S)_PROXY`` and ``NO_PROXY`` are read here too; TLS
    verifies against OpenSSL's default CA store (``SSL_CERT_FILE``,
    ``SSL_CERT_DIR``). ``timeout_s`` bounds each call as a whole: connect,
    the proxy's tunnel, the TLS handshake, send and read.
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
        except OSError as exc:
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
    network. A missing fixture raises NoFixtureError, which is not retried:
    the request was never recorded, or every answer to it failed to parse."""

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


def complete_with_retry(
    attempt: Callable[[], T],
    policy: RetryPolicy,
) -> Generator[float, None, T]:
    """Run ``attempt`` until it returns, with exponential backoff between
    tries, and return what it returned.

    The request path's only retry loop: ``TransportError``,
    ``RateLimitedError`` and ``MalformedOutputError`` share one budget of
    ``policy.max_attempts``. Raises ExhaustedRetriesError wrapping the last
    error once the budget is spent; any other error propagates at once.

    A generator: each backoff is yielded in seconds, and the caller resumes
    it once that long has passed, doing other work meanwhile rather than
    sleeping. Retry ``r`` waits ``policy.delay_ms(r)``, except after a
    malformed answer, which is re-asked at once: waiting does not help a
    re-sample. Throttling is no exception: the caller lowers its load
    through its own limit, not through this loop.
    """
    last_error: BaseException | None = None
    for retry in range(policy.max_attempts):
        if retry:
            yield 0.0 if isinstance(last_error, MalformedOutputError) else policy.delay_ms(retry) / 1000.0
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
    diagnostics: list[str] | None = None,
) -> ChatResponse:
    """One attempt: serve ``request`` (fingerprinted as ``digest``) from the
    cache when possible, else call the backend once and store the answer.

    A cache hit makes no backend call. A corrupt cache entry degrades to a
    miss with a diagnostic note.
    """
    if cache is not None:
        cached = cache.get(digest, diagnostics=diagnostics)
        if cached is not None:
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
    diagnostics: list[str] | None = None,
) -> Generator[float, None, T]:
    """Resolve a request into parsed output: fingerprint once, then retry
    one attempt of cache-or-call plus parse under ``complete_with_retry``.
    A generator like that loop: it yields each backoff, in seconds, and
    returns the parsed output.

    ``parser`` receives the response text plus a scratch diagnostics list
    that is merged into ``diagnostics`` only when parsing succeeds, so notes
    from abandoned attempts never leak into the run record. A parse failure
    evicts the cached response first: re-sampling is the remedy, and a bad
    answer must not be pinned by the cache.
    """
    digest = fingerprint(request)

    def attempt() -> T:
        response = lookup_or_call(request, digest, gateway, cache, diagnostics=diagnostics)
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

    return (yield from complete_with_retry(attempt, policy or RetryPolicy()))
