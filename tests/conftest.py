"""Shared fixtures: the bundled corpus, canned model, replay backend,
loopback chat servers and CONNECT proxies."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from reviewlens.domain import ProductRecord, load_product_records
from reviewlens.gateway import ApiCredential, HttpBackend, ReplayBackend, RetryPolicy
from reviewlens.testing import CannedReviewModel
from wire import TunnelProxy, WireServer

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"

PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy", "all_proxy", "request_method")

# A retry policy that never sleeps; tests that need backoff timing build
# their own.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_ms=0, backoff_factor=1.0)


@pytest.fixture(scope="session")
def testdata_dir() -> Path:
    return TESTDATA


@pytest.fixture(scope="session")
def products() -> list[ProductRecord]:
    return load_product_records(TESTDATA / "dataset.json")


@pytest.fixture(scope="session")
def products_by_id(products: list[ProductRecord]) -> dict[str, ProductRecord]:
    return {product.product_id: product for product in products}


@pytest.fixture(scope="session")
def canned_config() -> dict:
    return json.loads((TESTDATA / "canned_model.json").read_text(encoding="utf-8"))


@pytest.fixture()
def canned_model(products, canned_config) -> CannedReviewModel:
    return CannedReviewModel.from_config(products, canned_config)


@pytest.fixture()
def replay_backend() -> ReplayBackend:
    return ReplayBackend(TESTDATA / "fixtures")


@pytest.fixture()
def fast_retry() -> RetryPolicy:
    return FAST_RETRY


def golden(mode: str, product_id: str, name: str) -> bytes:
    return (TESTDATA / "golden" / mode / product_id / name).read_bytes()


@pytest.fixture(scope="session")
def golden_bytes():
    return golden


@pytest.fixture(autouse=True)
def _no_proxy_environment(monkeypatch):
    """Requests to a loopback server go direct, whatever proxy the shell sets."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def serve():
    """Start loopback chat servers, ``serve(script, backend=, key=)``
    (see ``wire.WireServer``); each is stopped after the test."""
    servers = []

    def start(script=(), **kwargs) -> WireServer:
        servers.append(WireServer(script, **kwargs))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def tunnel():
    """Start loopback CONNECT proxies, ``tunnel(upstream, reply=, delay=)``
    (see ``wire.TunnelProxy``); each is stopped after the test."""
    proxies = []

    def start(upstream, **kwargs) -> TunnelProxy:
        proxies.append(TunnelProxy(upstream, **kwargs))
        return proxies[-1]

    yield start
    for proxy in proxies:
        proxy.stop()


@pytest.fixture
def http_backend():
    """Build live backends, ``http_backend(base_url, credential, **kwargs)``;
    each is closed after the test."""
    backends = []

    def make(base_url: str, credential: ApiCredential, **kwargs) -> HttpBackend:
        backends.append(HttpBackend(base_url, credential, **kwargs))
        return backends[-1]

    yield make
    for backend in backends:
        backend.close()
