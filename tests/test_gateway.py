"""Gateway behavior: fingerprints, retry policy, HTTP error mapping,
record/replay, caching, and parse-directed resampling."""

from __future__ import annotations

import dataclasses
import http.client
import inspect
import json

import pytest

from reviewlens.cache import DiskResponseCache
from reviewlens.errors import (
    AuthFailedError,
    ExhaustedRetriesError,
    MalformedOutputError,
    NoFixtureError,
    RateLimitedError,
    TransportError,
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
from reviewlens.testing import FakeChatSession, ScriptedBackend

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

    def test_retryable_kinds(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransportError("boom"))
        assert policy.is_retryable(RateLimitedError("slow down"))
        assert policy.is_retryable(MalformedOutputError("bad json"))
        assert not policy.is_retryable(AuthFailedError("nope"))
        assert not policy.is_retryable(NoFixtureError("missing"))
        assert not policy.is_retryable(ValueError("misc"))

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
    def _backend(self, script):
        return HttpBackend("https://api.example.test/v1", KEY, session=FakeChatSession(script=script))

    def test_happy_path_and_wire_shape(self):
        session = FakeChatSession(
            script=[(200, {"choices": [{"message": {"content": "hi"}}], "model": "served-model"})]
        )
        backend = HttpBackend("https://api.example.test/v1/", ApiCredential(key="k1"), session=session)
        response = backend.complete(REQ)
        assert response.text == "hi"
        assert response.model == "served-model"
        sent = session.requests[0]
        assert sent["url"] == "https://api.example.test/v1/chat/completions"
        assert sent["headers"]["Authorization"] == "Bearer k1"
        assert sent["json"]["model"] == "test-model"
        assert sent["json"]["response_format"] == {"type": "json_object"}
        roles = [m["role"] for m in sent["json"]["messages"]]
        assert roles == ["system", "user"]

    def test_free_text_omits_response_format(self):
        session = FakeChatSession(
            script=[(200, {"choices": [{"message": {"content": "x"}}]})]
        )
        backend = HttpBackend("https://api.example.test", KEY, session=session)
        request = dataclasses.replace(REQ, response_format=ResponseFormat.FREE_TEXT)
        backend.complete(request)
        assert "response_format" not in session.requests[0]["json"]

    def test_missing_credential(self):
        session = FakeChatSession(script=[])
        with pytest.raises(AuthFailedError):
            HttpBackend("https://api.example.test/v1", None, session=session)
        assert session.requests == []

    @pytest.mark.parametrize(
        "status, error",
        [(429, RateLimitedError), (401, AuthFailedError), (403, AuthFailedError), (500, TransportError)],
    )
    def test_status_mapping(self, status, error):
        backend = self._backend([(status, {"error": "x"})])
        with pytest.raises(error):
            backend.complete(REQ)

    @pytest.mark.parametrize(
        "error",
        [
            ConnectionRefusedError("refused"),
            http.client.RemoteDisconnected("closed without response"),
            TimeoutError("timed out"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_network_error_wrapped(self, error):
        backend = self._backend([error])
        with pytest.raises(TransportError):
            backend.complete(REQ)

    def test_bad_envelope(self):
        backend = self._backend([(200, {"unexpected": True})])
        with pytest.raises(TransportError):
            backend.complete(REQ)

    def test_bearer_check_through_canned_backend(self):
        inner = ScriptedBackend(["pong"])
        session = FakeChatSession(backend=inner, expected_key="right-key")

        def backend(key):
            return HttpBackend("https://api.example.test", ApiCredential(key=key), session=session)

        with pytest.raises(AuthFailedError):
            backend("wrong-key").complete(REQ)
        assert backend("right-key").complete(REQ).text == "pong"

    def test_only_the_live_backend_holds_a_credential(self):
        for backend in (ChatBackend, HttpBackend, ReplayBackend, RecordingBackend, ScriptedBackend):
            assert list(inspect.signature(backend.complete).parameters) == ["self", "request"]
        for runner in (lookup_or_call, complete_parsed, run_product, run_products):
            assert "credential" not in inspect.signature(runner).parameters


class TestRecordReplay:
    def test_round_trip(self, tmp_path):
        recorder = RecordingBackend(ScriptedBackend(["first answer"]), tmp_path)
        recorded = recorder.complete(REQ)
        assert recorder.calls == 1
        replay = ReplayBackend(tmp_path)
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

    def test_non_retryable_raises_immediately(self, fast_retry):
        backend = ScriptedBackend([AuthFailedError("denied"), "never"])
        with pytest.raises(AuthFailedError):
            complete_with_retry(_calling(backend), fast_retry)
        assert backend.calls == 1

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
