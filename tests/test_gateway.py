"""Gateway behavior: fingerprints, retry policy, HTTP error mapping,
record/replay, caching, and parse-directed resampling."""

from __future__ import annotations

import dataclasses
import inspect
import json
import socket

import pytest

from reviewlens.cache import DiskResponseCache
from reviewlens.errors import (
    AuthFailedError,
    ExhaustedRetriesError,
    MalformedOutputError,
    NoFixtureError,
    RateLimitedError,
    TransportError,
    UnknownStatusError,
)
from reviewlens.gateway import (
    ApiCredential,
    ChatBackend,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    ResponseFormat,
    RetryPolicy,
    complete_parsed,
    complete_with_retry,
    fingerprint,
    lookup_or_call,
)
from reviewlens.pipeline import run_product, run_products
from reviewlens.testing import CannedReviewModel

from doubles import CountingBackend, ScriptedBackend

REQ = ChatRequest(
    model="test-model",
    system_prompt="system text",
    user_prompt="user text",
    temperature=0.0,
    response_format=ResponseFormat.JSON_OBJECT,
)


class TestFingerprint:
    def test_stable(self):
        twin = dataclasses.replace(REQ)
        assert fingerprint(REQ) == fingerprint(twin)
        assert len(fingerprint(REQ)) == 64
        int(fingerprint(REQ), 16)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("model", "other-model"),
            ("system_prompt", "system text 2"),
            ("user_prompt", "user text 2"),
            ("temperature", 0.5),
            ("response_format", ResponseFormat.FREE_TEXT),
        ],
    )
    def test_every_identity_field_participates(self, field, value):
        changed = dataclasses.replace(REQ, **{field: value})
        assert fingerprint(changed) != fingerprint(REQ)

    def test_credential_not_in_fingerprint(self):
        # Nothing secret may reach the digest input; the request carries no
        # credential field at all, which is the strongest version of that.
        assert "key" not in {f.name for f in dataclasses.fields(ChatRequest)}


class TestRetryPolicy:
    def test_delay_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay_ms=100, backoff_factor=2.0)
        assert [policy.delay_ms(i) for i in (1, 2, 3)] == [100, 200, 400]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_round_trip(self):
        policy = RetryPolicy(max_attempts=5, base_delay_ms=10, backoff_factor=3.0)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy


class TestApiCredential:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REVIEWLENS_API_KEY", "sk-test-123")
        credential = ApiCredential.from_env()
        assert credential is not None and credential.key == "sk-test-123"
        monkeypatch.delenv("REVIEWLENS_API_KEY")
        assert ApiCredential.from_env() is None

    def test_key_hidden_from_repr(self):
        credential = ApiCredential(key="sk-secret-value")
        assert "sk-secret-value" not in repr(credential)
        assert "sk-secret-value" not in str(credential)


KEY = ApiCredential(key="k")


class TestHttpBackend:
    """The backend against a loopback server (``wire.WireServer``); response
    framing is in test_transport."""

    @staticmethod
    def _payload(raw: bytes) -> dict:
        return json.loads(raw.partition(b"\r\n\r\n")[2])

    def test_happy_path_and_wire_shape(self, serve, http_backend):
        server = serve([(200, b'{"choices": [{"message": {"content": "hi"}}], "model": "served-model"}')])
        response = http_backend(f"{server.url}/", ApiCredential(key="k1")).complete(REQ)
        assert response.text == "hi"
        assert response.model == "served-model"
        (sent,) = server.arrivals
        assert sent.target == "/v1/chat/completions"
        assert sent.headers["Authorization"] == "Bearer k1"
        payload = self._payload(sent.raw)
        assert payload["model"] == "test-model"
        assert payload["response_format"] == {"type": "json_object"}
        roles = [m["role"] for m in payload["messages"]]
        assert roles == ["system", "user"]

    def test_free_text_omits_response_format(self, serve, http_backend):
        server = serve([(200, b'{"choices": [{"message": {"content": "x"}}]}')])
        request = dataclasses.replace(REQ, response_format=ResponseFormat.FREE_TEXT)
        assert http_backend(server.url, KEY).complete(request).model == "test-model"
        assert "response_format" not in self._payload(server.arrivals[0].raw)

    def test_missing_credential(self, serve):
        server = serve()
        with pytest.raises(AuthFailedError):
            HttpBackend(server.url, None)
        assert server.connections == 0

    @pytest.mark.parametrize(
        "status, error",
        [(429, RateLimitedError), (401, AuthFailedError), (403, AuthFailedError), (500, TransportError)],
    )
    def test_status_mapping(self, serve, http_backend, status, error):
        server = serve([(status, b'{"error": "x"}')])
        with pytest.raises(error):
            http_backend(server.url, KEY).complete(REQ)
        assert len(server.arrivals) == 1

    @pytest.mark.parametrize(
        "failure",
        [
            pytest.param("refused", id="ConnectionRefusedError"),
            pytest.param("drop", id="RemoteDisconnected"),
            pytest.param("stall", id="TimeoutError"),
        ],
    )
    def test_network_error_wrapped(self, serve, http_backend, failure):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))  # bound but not listening: connecting is refused
            refused = f"http://127.0.0.1:{placeholder.getsockname()[1]}/v1"
            # "drop" reads the request and closes the connection unanswered;
            # "stall" holds the answer past the backend's timeout.
            url = refused if failure == "refused" else serve([failure]).url
            with pytest.raises(TransportError):
                http_backend(url, KEY, timeout_s=0.2).complete(REQ)

    def test_bad_envelope(self, serve, http_backend):
        envelopes = [b'{"unexpected": true}', b'{"choices": [{"message": {"content": 42}}]}']
        server = serve([(200, envelope) for envelope in envelopes])
        backend = http_backend(server.url, KEY)
        for _ in envelopes:
            with pytest.raises(TransportError):
                backend.complete(REQ)
        assert len(server.arrivals) == 2

    def test_bearer_check_through_canned_backend(self, serve, http_backend):
        server = serve(backend=ScriptedBackend(["pong"]), key="right-key")
        with pytest.raises(AuthFailedError):
            http_backend(server.url, ApiCredential(key="wrong-key")).complete(REQ)
        assert http_backend(server.url, ApiCredential(key="right-key")).complete(REQ).text == "pong"

    def test_only_the_live_backend_holds_a_credential(self):
        for backend in (ChatBackend, HttpBackend, ReplayBackend, RecordingBackend, CannedReviewModel):
            assert list(inspect.signature(backend.complete).parameters) == ["self", "request"]
        for runner in (lookup_or_call, complete_parsed, run_product, run_products):
            assert "credential" not in inspect.signature(runner).parameters


class TestRecordReplay:
    def test_round_trip(self, tmp_path):
        live = ScriptedBackend(["first answer"])
        recorded = RecordingBackend(live, tmp_path).complete(REQ)
        assert live.calls == 1
        replay = CountingBackend(ReplayBackend(tmp_path))
        served = replay.complete(REQ)
        assert served.text == recorded.text == "first answer"
        assert served.model == "test-model"
        assert replay.calls == 1

    def test_missing_fixture_names_digest(self, tmp_path):
        replay = ReplayBackend(tmp_path)
        with pytest.raises(NoFixtureError, match=fingerprint(REQ)[:16]):
            replay.complete(REQ)

    def test_fixture_file_layout(self, tmp_path):
        recorder = RecordingBackend(ScriptedBackend(["text body"]), tmp_path)
        recorder.complete(REQ)
        recorder.close()
        assert [path.name for path in tmp_path.iterdir()] == ["responses.log"]
        response = DiskResponseCache(tmp_path).get(fingerprint(REQ))
        payload = {"text": response.text, "model": response.model}
        assert payload == {"text": "text body", "model": "test-model"}


class _Stats:
    """Counts what the gateway records, by CallStats field name."""

    def __init__(self):
        self.retries = 0
        self.cache_hits = 0

    def record(self, name):
        setattr(self, name, getattr(self, name) + 1)


def _calling(backend):
    """One attempt of the retry loop: a single backend call for REQ."""
    return lambda: backend.complete(REQ)


# The errors the retry loop retries, and a sample of those it does not.
RETRIED = [
    TransportError("down"),
    RateLimitedError("slow down"),
    MalformedOutputError("bad json"),
    UnknownStatusError("maybe"),
]
ENDS_AT_ONCE = [AuthFailedError("denied"), NoFixtureError("missing"), RuntimeError("bug")]


class TestCompleteWithRetry:
    def test_recovers_after_transient_failures(self, fast_retry):
        backend = ScriptedBackend([TransportError("a"), RateLimitedError("b"), "ok"])
        stats = _Stats()
        response = complete_with_retry(_calling(backend), fast_retry, stats=stats)
        assert response.text == "ok"
        assert backend.calls == 3
        assert stats.retries == 2

    def test_exhaustion_wraps_last_error(self, fast_retry):
        backend = ScriptedBackend([TransportError("x")] * 3)
        with pytest.raises(ExhaustedRetriesError) as info:
            complete_with_retry(_calling(backend), fast_retry)
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, TransportError)

    @pytest.mark.parametrize("error", RETRIED + ENDS_AT_ONCE, ids=lambda error: type(error).__name__)
    def test_retry_classification(self, fast_retry, error):
        """A retried error runs the whole budget, then is wrapped; any other
        error propagates as it is after one attempt."""
        retried = error in RETRIED
        backend = ScriptedBackend([error] * fast_retry.max_attempts)
        with pytest.raises(ExhaustedRetriesError if retried else type(error)) as info:
            complete_with_retry(_calling(backend), fast_retry)
        assert (info.value.last_error if retried else info.value) is error
        assert backend.calls == (fast_retry.max_attempts if retried else 1)

    def test_backoff_delays(self, monkeypatch):
        slept = []
        monkeypatch.setattr("reviewlens.gateway.time.sleep", slept.append)
        policy = RetryPolicy(max_attempts=3, base_delay_ms=100, backoff_factor=3.0)
        backend = ScriptedBackend([TransportError("1"), TransportError("2"), "ok"])
        complete_with_retry(_calling(backend), policy)
        assert slept == [0.1, 0.3]


class TestLookupOrCall:
    def test_miss_then_hit(self, tmp_path):
        cache = DiskResponseCache(tmp_path)
        backend = ScriptedBackend(["resp"])
        stats = _Stats()
        first = lookup_or_call(REQ, fingerprint(REQ), backend, cache, stats=stats)
        second = lookup_or_call(REQ, fingerprint(REQ), backend, cache, stats=stats)
        assert first.text == second.text == "resp"
        assert backend.calls == 1
        assert stats.cache_hits == 1

    def test_corrupt_entry_is_miss_with_diagnostic(self, tmp_path):
        with DiskResponseCache(tmp_path) as earlier:
            earlier.put(fingerprint(REQ), ChatResponse(text="not json at all", model="m"))
        (segment,) = tmp_path.glob("*.log")
        # The line's checksum no longer matches.
        segment.write_bytes(segment.read_bytes().replace(b"not json", b"not JSON"))
        cache = DiskResponseCache(tmp_path)
        backend = ScriptedBackend(["fresh"])
        notes: list[str] = []
        response = lookup_or_call(REQ, fingerprint(REQ), backend, cache, diagnostics=notes)
        assert response.text == "fresh"
        assert backend.calls == 1
        assert any("cache" in note for note in notes)
        # The bad entry was replaced by the fresh response.
        assert DiskResponseCache(tmp_path).get(fingerprint(REQ)).text == "fresh"


class TestCompleteParsed:
    @staticmethod
    def _parser(text, notes):
        payload = json.loads(text)
        if "value" not in payload:
            raise MalformedOutputError("value missing")
        notes.append("parsed fine")
        return payload["value"]

    def test_resamples_after_malformed(self, fast_retry):
        backend = ScriptedBackend(['{"nope": 1}', '{"value": 7}'])
        notes: list[str] = []
        stats = _Stats()
        value = complete_parsed(
            REQ, self._parser, gateway=backend, policy=fast_retry, stats=stats, diagnostics=notes
        )
        assert value == 7
        assert backend.calls == 2
        assert stats.retries == 1
        # Scratch notes from the failed attempt never leak through.
        assert notes == ["parsed fine"]

    def test_malformed_evicts_cache_entry(self, tmp_path, fast_retry):
        cache = DiskResponseCache(tmp_path)
        # Seed the cache with a bad response; the backend holds the good one.
        cache.put(fingerprint(REQ), ChatResponse(text='{"bad": true}', model="m"))
        backend = ScriptedBackend(['{"value": 3}'])
        value = complete_parsed(REQ, self._parser, gateway=backend, policy=fast_retry, cache=cache)
        assert value == 3
        assert backend.calls == 1
        cached = cache.get(fingerprint(REQ))
        assert cached is not None and json.loads(cached.text) == {"value": 3}

    def test_exhaustion_after_persistent_malformed(self, fast_retry):
        backend = ScriptedBackend(['{"no": 1}'] * 3)
        with pytest.raises(ExhaustedRetriesError) as info:
            complete_parsed(REQ, self._parser, gateway=backend, policy=fast_retry)
        assert isinstance(info.value.last_error, MalformedOutputError)
        assert backend.calls == 3

    def test_fingerprints_once_per_request(self, tmp_path, fast_retry, monkeypatch):
        digests = []

        def counting(request):
            digests.append(fingerprint(request))
            return digests[-1]

        monkeypatch.setattr("reviewlens.gateway.fingerprint", counting)
        cache = DiskResponseCache(tmp_path)
        backend = ScriptedBackend(['{"nope": 1}', '{"value": 7}'])
        value = complete_parsed(REQ, self._parser, gateway=backend, policy=fast_retry, cache=cache)
        assert value == 7
        assert backend.calls == 2
        assert len(digests) == 1

    def test_one_budget_for_malformed_and_transport(self, fast_retry):
        backend = ScriptedBackend(['{"no": 1}', '{"no": 2}'] + [TransportError("down")] * 3)
        with pytest.raises(ExhaustedRetriesError):
            complete_parsed(REQ, self._parser, gateway=backend, policy=fast_retry)
        assert backend.calls == fast_retry.max_attempts

    def test_exhaustion_reports_the_backend_calls_made(self, fast_retry):
        backend = ScriptedBackend(['{"no": 1}'] + [TransportError("down")] * 5)
        with pytest.raises(ExhaustedRetriesError) as info:
            complete_parsed(REQ, self._parser, gateway=backend, policy=fast_retry)
        assert info.value.attempts == backend.calls
        assert isinstance(info.value.last_error, TransportError)
