"""The live transport on the wire: ``HttpBackend`` over ``KeepAliveSession``
against loopback stdlib servers that count connections and arrivals.

Covers connection reuse across calls and threads, idle and mid-request
closes (a request is never sent twice), the response framings the reader
accepts and the malformed responses it refuses, status mapping, timeouts,
proxies, the credential header, and that importing the CLI loads no
third-party HTTP stack.
"""

from __future__ import annotations

import base64
import json
import os
import resource
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from reviewlens.cli import CREDENTIAL_ENV_VAR, main
from reviewlens.errors import AuthFailedError, RateLimitedError, TransportError
from reviewlens.gateway import ApiCredential, ChatRequest, HttpBackend, KeepAliveSession

KEY = ApiCredential(key="wire-key")
DATASET = str(Path(__file__).resolve().parents[1] / "testdata" / "dataset.json")
PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy", "all_proxy", "request_method")
SRC = Path(__file__).resolve().parents[1] / "src"


def _request(user: str = "hello") -> ChatRequest:
    return ChatRequest(model="wire-model", system_prompt="system", user_prompt=user)


def _answer(content: str) -> bytes:
    return json.dumps({"model": "served", "choices": [{"message": {"content": content}}]}).encode()


@dataclass(frozen=True)
class Raw:
    """A scripted reply written to the socket as it is; the server then
    closes the connection unless ``keep_open``."""

    data: bytes
    keep_open: bool = False


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without this, delayed ACKs
    # stall each keep-alive response by tens of milliseconds.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, body: bytes, *, close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also closes it after the reply
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
        action = self.server.arrive(self.path, self.headers)
        if action == "drop":
            self.close_connection = True
            return
        if action == "stall":
            self.server.release.wait(5)
        if isinstance(action, Raw):
            self.wfile.write(action.data)
            self.close_connection = not action.keep_open
            return
        if isinstance(action, tuple):
            self._reply(*action)
            return
        # The answer echoes what this request carried, so a response that
        # reached the wrong caller, or a header the transport rewrote, shows.
        user = body["messages"][1]["content"]
        content = f"{self.headers.get('Authorization', '')}\n{user}"
        self._reply(200, _answer(content), close=action == "close_header")
        if action == "idle_close":
            self.close_connection = True

    def do_CONNECT(self):
        self.server.arrive(self.path, self.headers)
        self._reply(403, b"")


class WireServer(ThreadingHTTPServer):
    """Loopback HTTP/1.1 server. Each POST takes the next scripted action,
    or "ok" once the script is spent:

    * ``"ok"``: 200 whose content is the Authorization header and the user
      prompt, one per line;
    * ``"idle_close"``: the same, then the server closes the connection;
    * ``"close_header"``: the same with a ``Connection: close`` header, then
      the server closes the connection;
    * ``"drop"``: read the request, close without answering;
    * ``"stall"``: wait for ``release`` (at most 5 s), then answer;
    * ``(status, body)``: that status and body;
    * ``Raw(data, keep_open)``: ``data`` as the whole reply.
    """

    daemon_threads = True

    def __init__(self, script=()):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.script = list(script)
        self.arrivals: list[tuple[str, dict[str, str]]] = []
        self.connections = 0
        self.closed = threading.Semaphore(0)
        self.release = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05})
        self._thread.start()

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.server_address[1]}"

    @property
    def url(self) -> str:
        return f"http://{self.address}/v1"

    def process_request(self, request, client_address):
        with self._lock:
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    def arrive(self, target: str, headers) -> object:
        with self._lock:
            self.arrivals.append((target, dict(headers)))
            return self.script.pop(0) if self.script else "ok"

    def stop(self) -> None:
        self.release.set()
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.fixture(autouse=True)
def _no_proxy_environment(monkeypatch):
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def serve():
    servers = []

    def start(script=()):
        servers.append(WireServer(script))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def backend():
    backends = []

    def make(base_url: str, **kwargs) -> HttpBackend:
        backends.append(HttpBackend(base_url, KEY, **kwargs))
        return backends[-1]

    yield make
    for made in backends:
        made.close()


def _ok(user: str = "hello") -> str:
    return f"Bearer {KEY.key}\n{user}"


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection_across_threads(self, serve, backend):
        server = serve()
        live = backend(server.url)
        texts = [live.complete(_request(f"main {i}")).text for i in range(3)]
        # A fresh thread per call, as the pipeline starts per product.
        for i in range(3):
            worker = threading.Thread(target=lambda i=i: texts.append(live.complete(_request(f"thread {i}")).text))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert texts == [_ok(f"main {i}") for i in range(3)] + [_ok(f"thread {i}") for i in range(3)]
        assert server.connections == 1
        assert len(server.arrivals) == 6
        assert server.arrivals[0][0] == "/v1/chat/completions"

    def test_idle_connection_closed_by_server_is_replaced(self, serve, backend):
        server = serve(["idle_close"])
        live = backend(server.url)
        assert live.complete(_request("first")).text == _ok("first")
        assert server.closed.acquire(timeout=5)
        assert live.complete(_request("second")).text == _ok("second")
        assert server.connections == 2
        assert len(server.arrivals) == 2

    def test_connection_close_header_keeps_no_idle_connection(self, serve, backend):
        server = serve(["close_header"])
        live = backend(server.url)
        assert live.complete(_request("first")).text == _ok("first")
        (origin,) = live._session._origins.values()
        assert origin._idle == []
        assert live.complete(_request("second")).text == _ok("second")
        assert server.connections == 2
        assert len(server.arrivals) == 2

    def test_drop_mid_request_is_not_resent(self, serve, backend):
        server = serve(["ok", "drop"])
        live = backend(server.url)
        live.complete(_request("first"))
        with pytest.raises(TransportError):
            live.complete(_request("dropped"))
        assert len(server.arrivals) == 2
        assert live.complete(_request("third")).text == _ok("third")
        assert server.connections == 2
        assert len(server.arrivals) == 3

    def test_concurrent_callers_never_share_a_connection(self, serve, backend):
        server = serve()
        live = backend(server.url)
        threads, calls = 8, 10
        results: dict[str, str] = {}

        def work(t: int) -> None:
            for c in range(calls):
                user = f"caller {t} call {c}"
                results[user] = live.complete(_request(user)).text

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == threads * calls
        assert all(text == _ok(user) for user, text in results.items())
        assert len(server.arrivals) == threads * calls
        assert 1 <= server.connections <= threads

    def test_pooled_socket_above_fd_1024_is_reused(self, serve, backend):
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 2048:
            pytest.skip("needs a soft RLIMIT_NOFILE of at least 2048")
        server = serve()
        live = backend(server.url)
        base = os.open(os.devnull, os.O_RDONLY)
        held = [base]
        try:
            held += [os.dup(base) for _ in range(1100)]
            assert live.complete(_request("first")).text == _ok("first")
            (origin,) = live._session._origins.values()
            (sock,) = origin._idle
            assert sock.fileno() >= 1024  # beyond what select() takes
            assert live.complete(_request("second")).text == _ok("second")
        finally:
            for fd in held:
                os.close(fd)
        assert server.connections == 1
        assert len(server.arrivals) == 2


def _head(status_line: bytes, *fields: bytes) -> bytes:
    return b"\r\n".join([status_line, *fields, b"", b""])


class TestResponseFraming:
    """The reader takes a response framed by Content-Length, chunked
    coding or the close of the connection, and refuses anything else as a
    transport error. Each scripted reply meets one request, sent once."""

    def test_chunked_body_keeps_the_connection(self, serve, backend):
        body = _answer(_ok("first"))
        chunks = b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part) for part in (body[:7], body[7:]))
        reply = _head(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked") + chunks + b"0\r\nX-Trailer: t\r\n\r\n"
        server = serve([Raw(reply, keep_open=True)])
        live = backend(server.url)
        assert live.complete(_request("first")).text == _ok("first")
        assert live.complete(_request("second")).text == _ok("second")
        assert server.connections == 1
        assert len(server.arrivals) == 2

    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param(_head(b"HTTP/1.1 2OO OK", b"Content-Length: 0"), id="malformed-status-line"),
            pytest.param(_head(b"HTTP/1.1 200 OK", b"X-Long: " + b"a" * 65536, b"Content-Length: 0"), id="header-line-too-long"),
            pytest.param(_head(b"HTTP/1.1 200 OK", *[b"X-Many: 1"] * 101, b"Content-Length: 0"), id="too-many-headers"),
            pytest.param(_head(b"HTTP/1.1 100 Continue") + _head(b"HTTP/1.1 200 OK"), id="interim-response"),
            pytest.param(_head(b"HTTP/1.1 200 OK", b"Content-Length: 2", b"Content-Length: 3") + b"{}", id="conflicting-lengths"),
            pytest.param(_head(b"HTTP/1.1 200 OK", b"Content-Length: 100") + b'{"choices": [', id="body-short-of-length"),
            pytest.param(_head(b"HTTP/1.1 200 OK", b"Transfer-Encoding: gzip") + b"x", id="unknown-transfer-coding"),
            pytest.param(_head(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked") + b"zz\r\n", id="bad-chunk-size"),
        ],
    )
    def test_malformed_response_is_a_transport_error_sent_once(self, serve, backend, reply):
        server = serve([Raw(reply)])
        live = backend(server.url)
        with pytest.raises(TransportError):
            live.complete(_request())
        assert len(server.arrivals) == 1
        (origin,) = live._session._origins.values()
        assert origin._idle == []

    def test_http_10_response_without_length_reads_to_close(self, serve, backend):
        server = serve([Raw(_head(b"HTTP/1.0 200 OK", b"Content-Type: application/json") + _answer(_ok("first")))])
        live = backend(server.url)
        assert live.complete(_request("first")).text == _ok("first")
        assert live.complete(_request("second")).text == _ok("second")
        assert server.connections == 2
        assert len(server.arrivals) == 2

    def test_bytes_past_the_response_are_never_read_as_the_next_one(self, serve, backend):
        def reply(content: str) -> bytes:
            body = _answer(content)
            return _head(b"HTTP/1.1 200 OK", b"Content-Length: %d" % len(body)) + body

        server = serve([Raw(reply(_ok("first")) + reply("smuggled"), keep_open=True)])
        live = backend(server.url)
        assert live.complete(_request("first")).text == _ok("first")
        assert live.complete(_request("second")).text == _ok("second")
        assert server.connections == 2
        assert len(server.arrivals) == 2

    def test_header_value_with_a_line_break_raises_before_any_byte_is_sent(self, serve):
        server = serve()
        session = KeepAliveSession()
        try:
            with pytest.raises(ValueError, match="X-Note") as caught:
                session.post(f"{server.url}/chat/completions", json={}, headers={"X-Note": "a\r\nX-Evil: 1"})
            assert "X-Evil" not in str(caught.value)
        finally:
            session.close()
        assert server.connections == 0
        assert server.arrivals == []


class TestWireErrors:
    @pytest.mark.parametrize(
        "status, body, error",
        [
            (429, b'{"error": "slow down"}', RateLimitedError),
            (401, b'{"error": "who"}', AuthFailedError),
            (403, b'{"error": "no"}', AuthFailedError),
            (500, b'{"error": "oops"}', TransportError),
            (200, b"<html>not json</html>", TransportError),
        ],
    )
    def test_status_and_body_mapping(self, serve, backend, status, body, error):
        server = serve([(status, body)])
        with pytest.raises(error):
            backend(server.url).complete(_request())
        assert len(server.arrivals) == 1

    def test_timeout_raises_transport_error(self, serve, backend):
        server = serve(["stall"])
        live = backend(server.url, timeout_s=0.2)
        with pytest.raises(TransportError):
            live.complete(_request())
        assert len(server.arrivals) == 1

    def test_timeout_applies_to_a_reused_connection(self, serve):
        server = serve(["ok", "stall"])
        session = KeepAliveSession()
        url = f"{server.url}/chat/completions"
        payload = {"messages": [{"role": "system", "content": ""}, {"role": "user", "content": "u"}]}
        try:
            assert session.post(url, json=payload, timeout=30).status_code == 200
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                session.post(url, json=payload, timeout=0.2)
            assert time.monotonic() - started < 2
        finally:
            session.close()
        assert server.connections == 1


class TestProxies:
    def test_http_proxy_gets_absolute_target_and_env_is_read_once(self, serve, backend, monkeypatch):
        proxy = serve()
        monkeypatch.setenv("HTTP_PROXY", f"http://user:p%40ss@{proxy.address}")
        reads = []
        getproxies = urllib.request.getproxies
        monkeypatch.setattr(urllib.request, "getproxies", lambda: reads.append(1) or getproxies())
        live = backend("http://api.example.test/v1")
        for i in range(3):
            assert live.complete(_request(f"call {i}")).text == _ok(f"call {i}")
        assert len(reads) == 1
        assert proxy.connections == 1
        target, headers = proxy.arrivals[0]
        assert target == "http://api.example.test/v1/chat/completions"
        assert headers["Host"] == "api.example.test"
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_no_proxy_connects_directly(self, serve, backend, monkeypatch):
        proxy, server = serve(), serve()
        monkeypatch.setenv("HTTP_PROXY", f"http://{proxy.address}")
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        assert backend(server.url).complete(_request()).text == _ok()
        assert proxy.arrivals == []
        assert server.arrivals[0][0] == "/v1/chat/completions"

    def test_https_proxy_tunnels_with_connect(self, serve, backend, monkeypatch):
        proxy = serve()
        monkeypatch.setenv("HTTPS_PROXY", f"http://user:pw@{proxy.address}")
        with pytest.raises(TransportError):
            backend("https://api.example.test/v1").complete(_request())
        target, headers = proxy.arrivals[0]
        assert target == "api.example.test:443"
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()


def test_netrc_entry_does_not_replace_bearer_credential(serve, backend, monkeypatch, tmp_path):
    server = serve()
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login someone password hunter2\n", encoding="utf-8")
    monkeypatch.setenv("NETRC", str(netrc))
    assert backend(server.url).complete(_request()).text == _ok()
    assert server.arrivals[0][1]["Authorization"] == f"Bearer {KEY.key}"


def test_request_headers_on_the_wire(serve, backend):
    from reviewlens import __version__

    server = serve()
    backend(server.url).complete(_request())
    headers = server.arrivals[0][1]
    assert headers["User-Agent"] == f"reviewlens/{__version__}"
    assert headers["Content-Type"] == "application/json"
    assert headers.get("Accept-Encoding", "identity") == "identity"


def test_cli_import_loads_no_third_party_http_stack():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, reviewlens.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("via", ["environment", "--api-key"])
def test_api_key_with_a_control_character_is_refused_unseen(serve, monkeypatch, tmp_path, capsys, via):
    server = serve()
    canary = "sk-canary-5e1f0c"
    key = f"{canary}\nX-Evil: 1"
    argv = ["run", "--dataset", DATASET, "--backend", "live", "--base-url", server.url,
            "--cache-dir", "", "--out", str(tmp_path / "out")]
    if via == "environment":
        monkeypatch.setenv(CREDENTIAL_ENV_VAR, key)
    else:
        monkeypatch.delenv(CREDENTIAL_ENV_VAR, raising=False)
        argv += ["--api-key", key]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: invalid API key")
    written = [path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()]
    for text in [out.encode(), err.encode(), *written]:
        assert canary.encode() not in text
    assert server.connections == 0
