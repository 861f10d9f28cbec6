"""A loopback HTTP/1.1 chat-completions server for the live backend's tests.

``WireServer`` counts the connections it accepts and closes, and records
every request it reads, byte for byte. It answers either from a script of
actions or through a ``ChatBackend``, checking the bearer key as a provider
would.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

from reviewlens.gateway import ChatBackend, ChatRequest, ResponseFormat


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
    """

    daemon_threads = True

    def __init__(self, script=(), *, backend: ChatBackend | None = None, key: str | None = None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.script = list(script)
        self.backend = backend
        self.key = key
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
        return f"http://{self.address}/v1"

    def process_request(self, request, client_address):
        with self._lock:
            self.connections += 1
        super().process_request(request, client_address)

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
