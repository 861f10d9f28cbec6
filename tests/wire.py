"""A loopback HTTP/1.1 chat-completions server and CONNECT proxy for the
live backend's tests.

``WireServer`` counts the connections it accepts and closes, and records
every request it reads, byte for byte. It answers either from a script of
actions or through a ``ChatBackend``, checking the bearer key as a provider
would, over plain TCP or over TLS with the certificates in ``tests/tls``.
``TunnelProxy`` answers CONNECT and splices bytes to one upstream address.
"""

from __future__ import annotations

import json
import select
import socket
import ssl
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import NamedTuple

from reviewlens.gateway import ChatBackend, ChatRequest, ResponseFormat

# ca.pem signs leaf.pem, a certificate for localhost and 127.0.0.1 followed
# by its key; generate.sh wrote both.
TLS = Path(__file__).resolve().parent / "tls"


def server_tls() -> ssl.SSLContext:
    """A server-side TLS context presenting the test leaf."""
    context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
    context.load_cert_chain(TLS / "leaf.pem")
    return context


def answer(content: str, model: str = "served") -> bytes:
    """A chat-completions response body whose message is ``content``."""
    return json.dumps({"model": model, "choices": [{"message": {"content": content}}]}).encode()


def chat_request(payload: dict) -> ChatRequest:
    """The request a chat-completions POST body, decoded, carries."""
    messages = {message["role"]: message["content"] for message in payload["messages"]}
    json_mode = payload.get("response_format") == {"type": "json_object"}
    return ChatRequest(
        model=payload["model"],
        system_prompt=messages["system"],
        user_prompt=messages["user"],
        temperature=payload["temperature"],
        response_format=ResponseFormat.JSON_OBJECT if json_mode else ResponseFormat.FREE_TEXT,
    )


@dataclass(frozen=True)
class Raw:
    """A scripted reply written to the socket as it is; the server then
    closes the connection unless ``keep_open``."""

    data: bytes
    keep_open: bool = False


class Arrival(NamedTuple):
    """One request as the server read it: target, headers, and the raw
    bytes off the socket, head and body; ``request`` decodes the body."""

    target: str
    headers: dict[str, str]
    raw: bytes

    @property
    def request(self) -> ChatRequest:
        return chat_request(json.loads(self.raw.partition(b"\r\n\r\n")[2]))


class _Recorder:
    """A handler's ``rfile`` that keeps every byte read through it."""

    def __init__(self, rfile):
        self._rfile = rfile
        self.data = bytearray()

    def readline(self, limit: int = -1) -> bytes:
        line = self._rfile.readline(limit)
        self.data += line
        return line

    def read(self, size: int = -1) -> bytes:
        data = self._rfile.read(size)
        self.data += data
        return data

    def take(self) -> bytes:
        data, self.data = bytes(self.data), bytearray()
        return data

    def close(self) -> None:
        self._rfile.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without this, delayed ACKs
    # stall each keep-alive response by tens of milliseconds.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.rfile = _Recorder(self.rfile)

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
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
        action = self.server.arrive(self.path, self.headers, self.rfile.take())
        if action == "drop":
            self.close_connection = True
            return
        if action == "stall":
            self.server.release.wait(5)
        if action == "trickle":
            self._trickle()
            return
        if isinstance(action, Raw):
            self.wfile.write(action.data)
            self.close_connection = not action.keep_open
            return
        if isinstance(action, tuple):
            self._reply(*action)
            return
        authorization = self.headers.get("Authorization", "")
        if self.server.backend is not None:
            status, body = self.server.chat(payload, authorization)
        else:
            # The answer echoes what this request carried, so a response that
            # reached the wrong caller, or a header the transport rewrote, shows.
            status, body = 200, answer(f"{authorization}\n{payload['messages'][1]['content']}")
        self._reply(status, body, close=action == "close_header")
        if action == "idle_close":
            self.close_connection = True

    def _trickle(self) -> None:
        """A whole 200 reply, 8 bytes every 0.3 s, until it is sent, the
        client has gone or the server stops; then close."""
        body = answer("trickled")
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%b" % (len(body), body)
        self.close_connection = True
        for start in range(0, len(reply), 8):
            if self.server.release.wait(0.3):
                return
            try:
                self.wfile.write(reply[start : start + 8])
            except OSError:
                return

    def do_CONNECT(self):
        self.server.arrive(self.path, self.headers, self.rfile.take())
        self._reply(403, b"")


class WireServer(ThreadingHTTPServer):
    """Loopback HTTP/1.1 server. Each POST takes the next scripted action,
    or "ok" once the script is spent:

    * ``"ok"``: 200 whose content is the Authorization header and the user
      prompt, one per line; with a ``backend``, its answer to the request
      instead, or 401 unless the bearer key is ``key`` (when one is given);
    * ``"idle_close"``: the same, then the server closes the connection;
    * ``"close_header"``: the same with a ``Connection: close`` header, then
      the server closes the connection;
    * ``"drop"``: read the request, close without answering;
    * ``"stall"``: wait for ``release`` (at most 5 s), then answer;
    * ``"trickle"``: a 200 reply, 8 bytes every 0.3 s (see ``_Handler._trickle``);
    * ``(status, body)``: that status and body;
    * ``Raw(data, keep_open)``: ``data`` as the whole reply.

    With a ``tls`` context each connection is served over TLS; one whose
    handshake fails is closed unserved.
    """

    daemon_threads = True

    def __init__(
        self,
        script=(),
        *,
        backend: ChatBackend | None = None,
        key: str | None = None,
        tls: ssl.SSLContext | None = None,
    ):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.script = list(script)
        self.backend = backend
        self.key = key
        self.tls = tls
        self.arrivals: list[Arrival] = []
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
        return f"{'http' if self.tls is None else 'https'}://{self.address}/v1"

    def process_request(self, request, client_address):
        with self._lock:
            self.connections += 1
        super().process_request(request, client_address)

    def finish_request(self, request, client_address):
        if self.tls is None:
            super().finish_request(request, client_address)
            return
        try:
            # Takes over the socket's descriptor, and closes it on failure.
            request = self.tls.wrap_socket(request, server_side=True)
        except OSError:
            return
        with request:
            super().finish_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    def arrive(self, target: str, headers, raw: bytes) -> object:
        with self._lock:
            self.arrivals.append(Arrival(target, dict(headers), raw))
            return self.script.pop(0) if self.script else "ok"

    def chat(self, payload: dict, authorization: str) -> tuple[int, bytes]:
        """The status and body a provider would send for ``payload``."""
        if self.key is not None and authorization != f"Bearer {self.key}":
            return 401, b'{"error": "invalid credential"}'
        response = self.backend.complete(chat_request(payload))
        return 200, answer(response.text, response.model)

    def all_closed(self, timeout: float = 5) -> bool:
        """Whether every connection accepted so far is closed, waiting up to
        ``timeout`` seconds for each. The server closes a keep-alive
        connection only once its client has, or after a scripted close."""
        return all(self.closed.acquire(timeout=timeout) for _ in range(self.connections))

    def stop(self) -> None:
        self.release.set()
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


ESTABLISHED = b"HTTP/1.1 200 Connection established\r\n\r\n"


class TunnelProxy:
    """A loopback HTTPS proxy. For each connection it reads the CONNECT head
    into ``heads``, waits ``delay`` seconds and sends ``reply``. After a 200
    reply it splices bytes both ways between the client and ``upstream``,
    whatever host the head named, until both sides close; after any other
    reply it reads from the client until the client closes. ``sent`` counts
    the bytes clients sent past their heads, and ``closed`` is released as
    each client connection closes.
    """

    def __init__(self, upstream: tuple[str, int], *, reply: bytes = ESTABLISHED, delay: float = 0.0):
        self.upstream = upstream
        self.reply = reply
        self.delay = delay
        self.heads: list[bytes] = []
        self.sent = 0
        self.closed = threading.Semaphore(0)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._threads = [threading.Thread(target=self._accept)]
        self._threads[0].start()

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self._listener.getsockname()[1]}"

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except TimeoutError:
                continue
            thread = threading.Thread(target=self._serve, args=(client,))
            with self._lock:
                self._threads.append(thread)
            thread.start()

    def _serve(self, client: socket.socket) -> None:
        try:
            with client:
                head = bytearray()
                while b"\r\n\r\n" not in head:
                    if not (data := self._recv(client)):
                        return
                    head += data
                end = head.index(b"\r\n\r\n") + 4
                with self._lock:
                    self.heads.append(bytes(head[:end]))
                    self.sent += len(head) - end
                if self._stop.wait(self.delay):
                    return
                client.sendall(self.reply)
                if not self.reply.startswith((b"HTTP/1.1 200 ", b"HTTP/1.0 200 ")):
                    while data := self._recv(client):
                        with self._lock:
                            self.sent += len(data)
                    return
                with socket.create_connection(self.upstream) as upstream:
                    upstream.sendall(head[end:])
                    self._splice(client, upstream)
        except OSError:
            pass
        finally:
            self.closed.release()

    def _recv(self, sock: socket.socket) -> bytes:
        """The next bytes from ``sock``; empty once it closes or the proxy stops."""
        while not self._stop.is_set():
            if select.select([sock], [], [], 0.05)[0]:
                return sock.recv(65536)
        return b""

    def _splice(self, client: socket.socket, upstream: socket.socket) -> None:
        peer = {client: upstream, upstream: client}
        while peer and not self._stop.is_set():
            for source in select.select(list(peer), [], [], 0.05)[0]:
                data = source.recv(65536)
                if source is client:
                    with self._lock:
                        self.sent += len(data)
                if data:
                    peer[source].sendall(data)
                else:
                    peer.pop(source).shutdown(socket.SHUT_WR)

    def stop(self) -> None:
        self._stop.set()
        self._threads[0].join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        self._listener.close()
