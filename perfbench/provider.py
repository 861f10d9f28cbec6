"""Fake chat-completions provider, run as its own process on loopback.

    python3 perfbench/provider.py SPEC_JSON

It prints ``READY <port>`` once listening, then serves until terminated:

* ``POST /chat/completions`` answers from a ``CannedReviewModel`` built from
  the generated tables. Each call's service time is
  ``(base + a*prompt_chars + b*response_chars) * jitter``, where the jitter is
  a seeded hash of the request content, so every pass sees identical service
  times whatever the arrival order. The fault plan is keyed by the request's
  unit (its stage and review or product, read from the content) and by the
  attempt number seen for that content in the current pass.
* ``POST /_bench/begin?pass=N`` starts pass N: attempt numbers restart.
* ``GET /_bench/log`` returns one record per attempt: pass, arrival, send,
  stage, unit, product, prompt and response characters, and outcome.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from reviewlens.domain import ProductRecord
from reviewlens.gateway import ChatRequest, ResponseFormat
from reviewlens.testing import CannedReviewModel

# Marker lines of the prompt templates; they identify a request's stage.
COMPARISON_MARKER = "Customer-reported attributes (JSON):"
GROUPING_MARKER = "Attribute names (JSON):"
BASELINE_MARKER = "Customer reviews (one per line, prefixed by its review id):"
ABLATED_MARKER = "Extracted attributes (JSON, each with the review id it came from):"
EXTRACTION_MARKER = "Customer review:"

MALFORMED_TEXT = "Sorry, I cannot answer in JSON right now."
IDLE_CONNECTION_TIMEOUT_S = 30


def _json_after(prompt: str, marker: str):
    rest = prompt[prompt.index(marker) + len(marker):]
    start = min(pos for pos in (rest.find("["), rest.find("{")) if pos >= 0)
    value, _ = json.JSONDecoder().raw_decode(rest[start:])
    return value


class Provider:
    """Answers, service times, fault plan and the attempt log."""

    def __init__(self, spec: dict):
        products = [ProductRecord.from_dict(p) for p in spec["dataset"]]
        self.model = CannedReviewModel.from_config(products, spec["canned"])
        self.latency = spec["latency"]
        self.seed = spec["seed"]
        self.faults = spec["faults"]
        self.review_by_text = {}
        self.product_of = {}
        self.product_by_title = {}
        for product in products:
            self.product_by_title[product.title] = product.product_id
            for review in product.reviews:
                self.review_by_text[review.text] = review.review_id
                self.product_of[review.review_id] = product.product_id
        self.review_by_pairs = {
            tuple(tuple(pair) for pair in pairs): rid for rid, pairs in spec["comparison_index"]
        }
        self.product_by_keys = {frozenset(keys): pid for keys, pid in spec["grouping_index"]}
        self._lock = threading.Lock()
        self._pass = -1
        self._attempts: dict[bytes, int] = {}
        self.log: list[dict] = []

    def begin(self, pass_id: int) -> None:
        with self._lock:
            self._pass = pass_id
            self._attempts = {}

    def unit_of(self, user_prompt: str) -> tuple[str, str, str]:
        """(stage, unit id, product id) of a request, read from its content."""
        if COMPARISON_MARKER in user_prompt:
            rows = _json_after(user_prompt, COMPARISON_MARKER)
            rid = self.review_by_pairs[tuple((r["attribute"], r["value"]) for r in rows)]
            return "comparison", rid, self.product_of[rid]
        if GROUPING_MARKER in user_prompt:
            pid = self.product_by_keys[frozenset(_json_after(user_prompt, GROUPING_MARKER))]
            return "grouping", pid, pid
        for stage, marker in (("baseline", BASELINE_MARKER), ("ablated", ABLATED_MARKER)):
            if marker in user_prompt:
                title = user_prompt.split("Product title: ", 1)[1].split("\n", 1)[0]
                pid = self.product_by_title[title]
                return stage, pid, pid
        if EXTRACTION_MARKER in user_prompt:
            text = user_prompt.split('"""\n', 1)[1].rsplit('\n"""', 1)[0]
            rid = self.review_by_text[text]
            return "extraction", rid, self.product_of[rid]
        raise KeyError("request matches no known stage")

    def service_s(self, content: bytes, prompt_chars: int, response_chars: int) -> float:
        digest = hashlib.sha256(f"{self.seed}:".encode() + content).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64
        low, high = self.latency["jitter"]
        ms = (
            self.latency["base_ms"]
            + self.latency["prompt_ms_per_char"] * prompt_chars
            + self.latency["response_ms_per_char"] * response_chars
        )
        return ms * (low + (high - low) * unit) / 1000.0

    def handle(self, body: bytes) -> tuple[str, bytes | None, float, dict]:
        """Decide one attempt: (outcome, response body or None for a dropped
        connection, service seconds, log record)."""
        payload = json.loads(body)
        messages = {m["role"]: m["content"] for m in payload["messages"]}
        system, user = messages.get("system", ""), messages.get("user", "")
        stage, unit, product = self.unit_of(user)
        content = json.dumps([payload["model"], system, user]).encode()
        with self._lock:
            attempt = self._attempts.get(content, 0) + 1
            self._attempts[content] = attempt
            pass_id = self._pass
        fault = self.faults.get(f"{stage}/{unit}")
        outcome = fault["kind"] if fault and attempt <= fault["failures"] else "ok"
        prompt_chars = len(system) + len(user)
        text = ""
        if outcome in ("ok", "malformed"):
            if outcome == "ok":
                request = ChatRequest(
                    model=payload["model"],
                    system_prompt=system,
                    user_prompt=user,
                    temperature=payload.get("temperature", 0.0),
                    response_format=ResponseFormat.JSON_OBJECT,
                )
                text = self.model.complete(request).text
            else:
                text = MALFORMED_TEXT
            service = self.service_s(content, prompt_chars, len(text))
            response = json.dumps(
                {"model": payload["model"], "choices": [{"message": {"content": text}}]}
            ).encode()
        else:
            # Errors and drops come back after the fixed part of the latency.
            service = self.latency["base_ms"] / 1000.0
            response = None if outcome == "drop" else json.dumps({"error": outcome}).encode()
        record = {
            "pass": pass_id,
            "stage": stage,
            "unit": unit,
            "product": product,
            "attempt": attempt,
            "prompt_chars": prompt_chars,
            "response_chars": len(text),
            "outcome": outcome,
        }
        return outcome, response, service, record

    def record(self, entry: dict) -> None:
        with self._lock:
            self.log.append(entry)


def make_handler(provider: Provider):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without this, delayed ACKs stall every small response by ~20 ms.
        disable_nagle_algorithm = True
        timeout = IDLE_CONNECTION_TIMEOUT_S

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _reply(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()

        def do_GET(self):
            if urlsplit(self.path).path == "/_bench/log":
                with provider._lock:
                    body = json.dumps(provider.log).encode()
                self._reply(200, body)
            else:
                self._reply(404, b"{}")

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            arrival = time.monotonic()
            url = urlsplit(self.path)
            if url.path == "/_bench/begin":
                provider.begin(int(parse_qs(url.query)["pass"][0]))
                self._reply(200, b"{}")
                return
            if url.path != "/chat/completions":
                self._reply(404, b"{}")
                return
            outcome, response, service, record = provider.handle(body)
            delay = arrival + service - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if outcome == "drop":
                self.close_connection = True
            elif outcome == "http_500":
                self._reply(500, response)
            elif outcome == "http_429":
                self._reply(429, response)
            else:
                self._reply(200, response)
            record["arrival"] = arrival
            record["send"] = time.monotonic()
            provider.record(record)

    return Handler


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Provider(spec)))
    server.daemon_threads = True
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
