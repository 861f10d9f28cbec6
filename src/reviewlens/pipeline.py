"""Orchestration: full, baseline, and ablated runs over one product.

The full mode chains extraction into comparison per review, joins once for
the single grouping call, then assembles the report deterministically. With
R productive reviews and a cold cache that is R extraction calls, R
comparison calls, and one grouping call: 2R + 1.
The baseline mode spends exactly one call on the whole product; the ablated
mode spends R extraction calls plus one direct report call. Every one of
those requests goes through ``_Runtime.call``, which counts it once, when
it is issued, and resolves it through the gateway's single retry loop.

``workers`` caps the LLM calls in flight for a whole run: it is the number
of permits in one ``_PermitPool``, and a thread holds a permit while it
runs its product's work (the per-review drain loop, or the grouping or
direct-report call). A product's per-review tasks wait in one queue,
drained by ``workers`` threads at most, the caller's included. A task whose
request backs off after a transport error or malformed output runs the
queue's next tasks on its own thread until the backoff has passed. Helping
is one level deep: a task run inside a backoff sleeps through its own.

``run_products`` runs the products one after another on the caller's
thread, except that two may be in progress at once: when the earliest
unfinished one parks a request, the next one starts on a thread of its
own, and it gets a permit only while the earlier one has a request parked.
A request parks when it backs off after a transport error or malformed
output with nothing left in its product's queue. Parking lends the permit
for the rest of the wait; every other backoff, a throttled one included,
sleeps holding it. The later product hands the permit back before its
next request once the earlier one waits for it. A direct call of
``run_product`` and the mode runners gets a private pool of ``workers``
permits.

Scheduling never leaks into results: per-review outcomes are collected in
dataset order regardless of completion order, so report bytes are identical
for any worker count. A review that fails permanently becomes a failed
unit; the rest of the product still reports.
"""

from __future__ import annotations

import collections
import contextlib
import enum
import functools
import heapq
import itertools
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

from .cache import DiskResponseCache
from .comparison import build_comparison_prompt, parse_comparison_response
from .domain import (
    CallStats,
    CategoryAssignment,
    ComparedAttribute,
    ExtractedAttribute,
    OTHER_CATEGORY,
    ProductRecord,
    Review,
    StructuredReport,
)
from .errors import (
    ExhaustedRetriesError,
    GatewayError,
    MalformedOutputError,
)
from .extraction import build_extraction_prompt, parse_extraction_response
from .gateway import (
    ApiCredential,
    ChatBackend,
    ChatRequest,
    ChatResponse,
    RetryPolicy,
    check_int,
    check_number,
    complete_parsed,
    config_kwargs,
)
from .grouping import build_grouping_prompt, collect_unique_keys, parse_grouping_response
from .prompt_library import DEFAULT_PROMPT_VERSION, render_prompt
from .structuring import build_report, merge_insights, parse_report_sections

T = TypeVar("T")

__all__ = [
    "PipelineMode",
    "PipelineConfig",
    "PipelineResult",
    "StatsRecorder",
    "run_full",
    "run_baseline",
    "run_ablated",
    "run_product",
    "run_products",
    "build_baseline_prompt",
    "build_ablated_prompt",
    "build_run_manifest",
]

REPORT_SCHEMA = (
    '{"sections": [{"status": "<Missing|Contradictory|Partially-matching|Matching>", '
    '"categories": [{"category": "<label>", "insights": [{"attribute": "<name>", '
    '"values": ["<value>"], "evidence": ["<review id>"], '
    '"justifications": ["<quote or reasoning>"]}]}]}]}'
)


class PipelineMode(str, enum.Enum):
    FULL = "full"
    BASELINE = "baseline"
    ABLATED = "ablated"


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Everything a run needs except the credential, which never lives here."""

    extraction_model: str = "gemini-2.0-flash"
    comparison_model: str = "gemini-2.0-flash"
    grouping_model: str = "gemini-2.0-flash-lite"
    workers: int = 8
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cache_dir: Path | None = None
    prompt_version: str = DEFAULT_PROMPT_VERSION
    mode: PipelineMode = PipelineMode.FULL
    extraction_temperature: float = 0.0
    comparison_temperature: float = 0.0
    grouping_temperature: float = 0.0

    def __post_init__(self) -> None:
        for name in ("extraction_model", "comparison_model", "grouping_model", "prompt_version"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise TypeError(f"{name} must be a non-empty string, got {value!r}")
        check_int("workers", self.workers, 1)
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(f"retry must be a RetryPolicy, got {self.retry!r}")
        for name in ("extraction_temperature", "comparison_temperature", "grouping_temperature"):
            object.__setattr__(self, name, check_number(name, getattr(self, name), 0.0, 1.0))
        if not isinstance(self.cache_dir, (str, Path, type(None))):
            raise TypeError(f"cache_dir must be a path string or null, got {self.cache_dir!r}")
        # An empty path means no cache, not the working directory.
        cache_dir = None if self.cache_dir in (None, "") else Path(self.cache_dir)
        object.__setattr__(self, "cache_dir", cache_dir)
        object.__setattr__(self, "mode", PipelineMode(self.mode))

    def to_dict(self) -> dict[str, Any]:
        return {
            **asdict(self),
            "retry": self.retry.to_dict(),
            "cache_dir": None if self.cache_dir is None else str(self.cache_dir),
            "mode": self.mode.value,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PipelineConfig":
        """Build a config from a JSON object holding only field names;
        ``retry``, if present, is such an object for ``RetryPolicy``."""
        kwargs = config_kwargs(cls, payload, "config")
        if "retry" in kwargs:
            kwargs["retry"] = RetryPolicy.from_dict(kwargs["retry"])
        return cls(**kwargs)


class StatsRecorder:
    """Thread-safe tally behind the immutable CallStats snapshot, keyed by
    CallStats field name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def record(self, name: str) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1

    def snapshot(self) -> CallStats:
        with self._lock:
            return CallStats(**self._counts)


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """A product run: the report, which reviews failed, what went sideways,
    and the per-review extractions (kept for the evaluation harness)."""

    report: StructuredReport
    failed_units: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()
    extractions: Mapping[str, tuple[ExtractedAttribute, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "failed_units", tuple(self.failed_units))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        object.__setattr__(
            self,
            "extractions",
            {rid: tuple(attrs) for rid, attrs in dict(self.extractions).items()},
        )


_STEP_FAILURES = (ExhaustedRetriesError, GatewayError, MalformedOutputError)

# Products in progress at once in ``run_products``: a third could only get
# a permit while both earlier ones are parked.
_PRODUCTS_IN_PROGRESS = 2


class _PermitPool:
    """The permits of one run, one per LLM call in flight, shared by the
    products that run at once. A product is known by its rank, its position
    in the dataset.

    A free permit goes to the earliest waiting rank, first come first
    served within a rank, and to a rank only while every earlier unfinished
    one has a request parked. As that rule holds for a rank whenever it
    holds for a later one, the head of the wait queue is the only candidate.
    """

    def __init__(self, count: int, on_park: Callable[[], None] | None = None) -> None:
        self._cond = threading.Condition()
        self._on_park = on_park
        self._free = count
        self._waiting: list[tuple[int, int]] = []  # heap of (rank, ticket)
        self._tickets = itertools.count()
        self._parked: collections.Counter[int] = collections.Counter()
        self._unfinished: set[int] = set()

    def start(self, rank: int) -> None:
        with self._cond:
            self._unfinished.add(rank)

    def finish(self, rank: int) -> None:
        with self._cond:
            self._unfinished.discard(rank)
            self._cond.notify_all()

    def lending(self) -> bool:
        """Whether another product may start: fewer than
        ``_PRODUCTS_IN_PROGRESS`` are unfinished, and each has a request
        parked."""
        with self._cond:
            return 0 < len(self._unfinished) < _PRODUCTS_IN_PROGRESS and all(
                self._parked[r] for r in self._unfinished
            )

    @contextlib.contextmanager
    def holding(self, rank: int) -> Iterator[None]:
        with self._cond:
            self._take(rank)
        try:
            yield
        finally:
            with self._cond:
                self._put_back()

    def park(self, rank: int, seconds: float) -> None:
        """Wait ``seconds`` holding no permit: a later product may take the
        one this thread held. Then take a permit again."""
        with self._cond:
            self._parked[rank] += 1
            self._put_back()
        if self._on_park is not None:
            self._on_park()
        time.sleep(seconds)
        with self._cond:
            self._parked[rank] -= 1
            self._take(rank)

    def hand_over(self, rank: int) -> None:
        """Give this thread's permit to an earlier product waiting for one,
        if there is such a product, and wait for a permit again."""
        with self._cond:
            if self._waiting and self._waiting[0][0] < rank:
                self._put_back()
                self._take(rank)

    def _put_back(self) -> None:
        self._free += 1
        self._cond.notify_all()

    def _take(self, rank: int) -> None:
        ticket = (rank, next(self._tickets))
        heapq.heappush(self._waiting, ticket)
        self._cond.wait_for(
            lambda: self._free > 0
            and self._waiting[0] == ticket
            and all(self._parked[r] for r in self._unfinished if r < rank)
        )
        heapq.heappop(self._waiting)
        self._free -= 1
        # The next waiter may be due a permit too.
        self._cond.notify_all()


@dataclass(slots=True)
class _Runtime:
    config: PipelineConfig
    gateway: ChatBackend
    credential: ApiCredential | None
    cache: DiskResponseCache | None
    permits: _PermitPool
    rank: int
    stats: StatsRecorder = field(default_factory=StatsRecorder)
    # The product's queued per-review tasks, and which threads are running
    # one inside a backoff.
    _queue: collections.deque[Callable[[], None]] = field(default_factory=collections.deque)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    def run_queued(self, tasks: list[Callable[[], None]]) -> None:
        """Run ``tasks`` on ``min(workers, len(tasks))`` threads, the caller's
        included, each holding a permit while it runs them, and return once
        every task has finished. A task must not raise."""
        with self._lock:
            self._queue.extend(tasks)
        helpers = [
            threading.Thread(target=self._drain)
            for _ in range(min(self.config.workers, len(tasks)) - 1)
        ]
        for helper in helpers:
            helper.start()
        try:
            self._drain()
        finally:
            self.drop_queued()
            for helper in helpers:
                helper.join()

    def drop_queued(self) -> None:
        with self._lock:
            self._queue.clear()

    def _next_task(self) -> Callable[[], None] | None:
        with self._lock:
            return self._queue.popleft() if self._queue else None

    def _drain(self) -> None:
        with self.holding():
            while (task := self._next_task()) is not None:
                task()

    def holding(self) -> contextlib.AbstractContextManager[None]:
        return self.permits.holding(self.rank)

    def idle(self, seconds: float) -> None:
        """Spend a backoff of ``seconds``: run queued tasks until it has
        passed, unless this thread is already inside one. Wait out what is
        left holding the permit while tasks are still queued, else parked.
        A task started here may end after the backoff has passed."""
        deadline = time.monotonic() + seconds
        if not getattr(self._local, "helping", False):
            self._local.helping = True
            try:
                while time.monotonic() < deadline and (task := self._next_task()) is not None:
                    task()
            finally:
                self._local.helping = False
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        with self._lock:
            queued = bool(self._queue)
        if queued:
            time.sleep(remaining)
        else:
            self.permits.park(self.rank, remaining)

    def complete(self, request: ChatRequest, credential: ApiCredential | None = None) -> ChatResponse:
        """One backend call, made once an earlier product that waits for a
        permit has been handed this thread's."""
        self.permits.hand_over(self.rank)
        return self.gateway.complete(request, credential)

    def call(
        self,
        counter: str,
        request: ChatRequest,
        parser: Callable[[str, list[str]], T],
        notes: list[str],
    ) -> T:
        """Resolve one stage request into parsed output. The logical request
        is counted under ``counter`` when it is issued, whatever its outcome,
        so backend calls = requests - cache hits + retries on every path."""
        self.stats.record(counter)
        return complete_parsed(
            request,
            parser,
            gateway=self,
            credential=self.credential,
            policy=self.config.retry,
            cache=self.cache,
            stats=self.stats,
            diagnostics=notes,
            idle=self.idle,
        )


@contextlib.contextmanager
def _cache_for(
    config: PipelineConfig, cache: DiskResponseCache | None
) -> Iterator[DiskResponseCache | None]:
    """``cache``, else the store at ``config.cache_dir`` (if any), opened
    here and closed on exit."""
    if cache is not None or config.cache_dir is None:
        yield cache
        return
    with DiskResponseCache(config.cache_dir) as opened:
        yield opened


@contextlib.contextmanager
def _make_runtime(
    config: PipelineConfig,
    gateway: ChatBackend,
    credential: ApiCredential | None,
    cache: DiskResponseCache | None,
    permits: _PermitPool | None,
    rank: int,
) -> Iterator[_Runtime]:
    if permits is None:
        permits = _PermitPool(config.workers)
    with _cache_for(config, cache) as cache:
        yield _Runtime(config, gateway, credential, cache, permits, rank)


@dataclass(slots=True)
class _ReviewOutcome:
    review_id: str
    diagnostics: list[str]
    attributes: list[ExtractedAttribute] = field(default_factory=list)
    compared: list[ComparedAttribute] = field(default_factory=list)
    failed_stage: str | None = None


def _extract(review: Review, product: ProductRecord, runtime: _Runtime) -> _ReviewOutcome:
    """The per-review extraction task, shared by the full and ablated modes."""
    config = runtime.config
    outcome = _ReviewOutcome(review.review_id, diagnostics=[])
    request = build_extraction_prompt(
        review,
        product.title,
        model=config.extraction_model,
        temperature=config.extraction_temperature,
        prompt_version=config.prompt_version,
    )
    try:
        outcome.attributes = runtime.call(
            "extraction_calls",
            request,
            lambda text, _scratch: parse_extraction_response(text, review.review_id),
            outcome.diagnostics,
        )
    except _STEP_FAILURES as exc:
        outcome.diagnostics.append(f"review {review.review_id}: extraction failed permanently: {exc}")
        outcome.failed_stage = "extraction"
    return outcome


def _extract_and_compare(review: Review, product: ProductRecord, runtime: _Runtime) -> _ReviewOutcome:
    """The chained per-review task: extraction feeds comparison directly."""
    outcome = _extract(review, product, runtime)
    attributes = outcome.attributes
    if outcome.failed_stage is not None or not attributes:
        return outcome
    config = runtime.config
    request = build_comparison_prompt(
        attributes,
        product.seller_description,
        model=config.comparison_model,
        temperature=config.comparison_temperature,
        prompt_version=config.prompt_version,
    )
    try:
        outcome.compared = runtime.call(
            "comparison_calls",
            request,
            lambda text, scratch: parse_comparison_response(text, attributes, diagnostics=scratch),
            outcome.diagnostics,
        )
    except _STEP_FAILURES as exc:
        outcome.diagnostics.append(f"review {review.review_id}: comparison failed permanently: {exc}")
        outcome.failed_stage = "comparison"
    return outcome


@dataclass(slots=True)
class _Collected:
    """Per-review outcomes folded in dataset order."""

    succeeded: list[_ReviewOutcome]
    failed: list[str]
    diagnostics: list[str]
    extractions: dict[str, list[ExtractedAttribute]]


def _run_reviews(
    product: ProductRecord,
    runtime: _Runtime,
    task: Callable[[Review, ProductRecord, _Runtime], _ReviewOutcome],
) -> _Collected:
    """Run the per-review task through the runtime's queue and collect the
    outcomes in dataset order whatever the completion order. An exception
    that is not a step failure, a ``KeyboardInterrupt`` or ``SystemExit``
    on a helper thread included, is kept with its review, never raised
    inside the request whose backoff ran it, and re-raised here, in dataset
    order, once the queue has drained. One that is not an ``Exception``
    also drops the reviews not yet started."""
    reviews = product.reviews
    results: list[_ReviewOutcome | BaseException | None] = [None] * len(reviews)

    def run(index: int) -> None:
        try:
            results[index] = task(reviews[index], product, runtime)
        except BaseException as exc:
            results[index] = exc
            if not isinstance(exc, Exception):
                runtime.drop_queued()

    runtime.run_queued([functools.partial(run, index) for index in range(len(reviews))])
    outcomes: list[_ReviewOutcome] = []
    for result in results:
        # The queue runs in dataset order, so a dropped review comes after
        # the one that raised.
        if isinstance(result, BaseException):
            raise result
        outcomes.append(result)
    return _Collected(
        succeeded=[o for o in outcomes if o.failed_stage is None],
        failed=[o.review_id for o in outcomes if o.failed_stage is not None],
        diagnostics=[note for o in outcomes for note in o.diagnostics],
        extractions={o.review_id: o.attributes for o in outcomes if o.failed_stage != "extraction"},
    )


def _assign_categories(
    compared: list[ComparedAttribute], runtime: _Runtime, notes: list[str]
) -> CategoryAssignment:
    keys = collect_unique_keys(compared)
    if not keys:
        return CategoryAssignment()
    config = runtime.config
    request = build_grouping_prompt(
        keys,
        model=config.grouping_model,
        temperature=config.grouping_temperature,
        prompt_version=config.prompt_version,
    )
    try:
        with runtime.holding():
            return runtime.call(
                "grouping_calls",
                request,
                lambda text, scratch: parse_grouping_response(text, keys, diagnostics=scratch),
                notes,
            )
    except _STEP_FAILURES as exc:
        notes.append(
            f"grouping failed permanently; every attribute assigned {OTHER_CATEGORY!r}: {exc}"
        )
        return CategoryAssignment(mapping={key: OTHER_CATEGORY for key in keys})


def _empty_report(product: ProductRecord, stats: CallStats) -> StructuredReport:
    return build_report([], CategoryAssignment(), product_id=product.product_id, stats=stats)


def run_full(
    product: ProductRecord,
    config: PipelineConfig,
    gateway: ChatBackend,
    *,
    credential: ApiCredential | None = None,
    cache: DiskResponseCache | None = None,
    permits: _PermitPool | None = None,
    rank: int = 0,
) -> PipelineResult:
    """The multi-step pipeline: per-review extract and compare, one grouping
    call, deterministic structuring."""
    with _make_runtime(config, gateway, credential, cache, permits, rank) as runtime:
        reviews = _run_reviews(product, runtime, _extract_and_compare)
        compared = [item for outcome in reviews.succeeded for item in outcome.compared]
        assignment = _assign_categories(compared, runtime, reviews.diagnostics)
    report = build_report(
        merge_insights(compared),
        assignment,
        product_id=product.product_id,
        stats=runtime.stats.snapshot(),
    )
    return PipelineResult(
        report=report,
        failed_units=tuple(reviews.failed),
        diagnostics=tuple(reviews.diagnostics),
        extractions=reviews.extractions,
    )


def build_baseline_prompt(
    product: ProductRecord,
    *,
    model: str,
    temperature: float = 0.0,
    prompt_version: str = DEFAULT_PROMPT_VERSION,
) -> ChatRequest:
    """One prompt holding the description and every review, asking for the
    finished report in a single step."""
    reviews_block = "\n".join(
        f"[{review.review_id}] {review.text}" for review in product.reviews
    )
    return render_prompt(
        "baseline_report",
        model=model,
        temperature=temperature,
        prompt_version=prompt_version,
        title=product.title,
        seller_description=product.seller_description,
        reviews_block=reviews_block,
        schema=REPORT_SCHEMA,
    )


def build_ablated_prompt(
    product: ProductRecord,
    attributes: list[ExtractedAttribute],
    *,
    model: str,
    temperature: float = 0.0,
    prompt_version: str = DEFAULT_PROMPT_VERSION,
) -> ChatRequest:
    """Direct report prompt over pre-extracted attributes, skipping the
    dedicated comparison and grouping calls."""
    attributes_json = json.dumps(
        [
            {"attribute": attr.key, "value": attr.value, "review_id": attr.review_id}
            for attr in attributes
        ],
        ensure_ascii=False,
        indent=2,
    )
    return render_prompt(
        "ablated_report",
        model=model,
        temperature=temperature,
        prompt_version=prompt_version,
        title=product.title,
        seller_description=product.seller_description,
        attributes_json=attributes_json,
        schema=REPORT_SCHEMA,
    )


def _direct_report(
    request: ChatRequest,
    product: ProductRecord,
    runtime: _Runtime,
    notes: list[str],
) -> tuple[StructuredReport, bool]:
    """Resolve a whole-report request. Returns (report, unit_failed).

    Unparseable output after retries degrades to an empty report with a
    diagnostic; transport-level exhaustion marks the unit failed.
    """
    try:
        # The direct report call is the run's "+1", counted as grouping.
        with runtime.holding():
            insights, assignment = runtime.call(
                "grouping_calls",
                request,
                lambda text, scratch: parse_report_sections(text, product.review_ids, diagnostics=scratch),
                notes,
            )
    except _STEP_FAILURES as exc:
        malformed = isinstance(exc, MalformedOutputError) or (
            isinstance(exc, ExhaustedRetriesError)
            and isinstance(exc.last_error, MalformedOutputError)
        )
        if malformed:
            notes.append(f"report payload unusable after retries; emitting empty report: {exc}")
        else:
            notes.append(f"direct report call failed permanently: {exc}")
        return _empty_report(product, runtime.stats.snapshot()), not malformed
    report = build_report(
        insights, assignment, product_id=product.product_id, stats=runtime.stats.snapshot()
    )
    return report, False


def run_baseline(
    product: ProductRecord,
    config: PipelineConfig,
    gateway: ChatBackend,
    *,
    credential: ApiCredential | None = None,
    cache: DiskResponseCache | None = None,
    permits: _PermitPool | None = None,
    rank: int = 0,
) -> PipelineResult:
    """Single-call mode: the whole product in one prompt, one response."""
    if not product.reviews:
        return PipelineResult(report=_empty_report(product, CallStats()))
    request = build_baseline_prompt(
        product,
        model=config.comparison_model,
        temperature=config.comparison_temperature,
        prompt_version=config.prompt_version,
    )
    notes: list[str] = []
    with _make_runtime(config, gateway, credential, cache, permits, rank) as runtime:
        report, unit_failed = _direct_report(request, product, runtime, notes)
    failed = product.review_ids if unit_failed else ()
    return PipelineResult(report=report, failed_units=failed, diagnostics=notes)


def run_ablated(
    product: ProductRecord,
    config: PipelineConfig,
    gateway: ChatBackend,
    *,
    credential: ApiCredential | None = None,
    cache: DiskResponseCache | None = None,
    permits: _PermitPool | None = None,
    rank: int = 0,
) -> PipelineResult:
    """Extraction plus one direct report call; no per-review comparison and
    no dedicated grouping call."""
    with _make_runtime(config, gateway, credential, cache, permits, rank) as runtime:
        reviews = _run_reviews(product, runtime, _extract)
        attributes = [attr for outcome in reviews.succeeded for attr in outcome.attributes]
        failed = reviews.failed
        if attributes:
            request = build_ablated_prompt(
                product,
                attributes,
                model=config.comparison_model,
                temperature=config.comparison_temperature,
                prompt_version=config.prompt_version,
            )
            report, unit_failed = _direct_report(request, product, runtime, reviews.diagnostics)
            if unit_failed:
                # The terminal call covered every review, so the whole product failed.
                failed = list(product.review_ids)
        else:
            report = _empty_report(product, runtime.stats.snapshot())
    return PipelineResult(
        report=report,
        failed_units=tuple(failed),
        diagnostics=tuple(reviews.diagnostics),
        extractions=reviews.extractions,
    )


def run_product(
    product: ProductRecord,
    config: PipelineConfig,
    gateway: ChatBackend,
    *,
    credential: ApiCredential | None = None,
    cache: DiskResponseCache | None = None,
    permits: _PermitPool | None = None,
    rank: int = 0,
) -> PipelineResult:
    """Dispatch on the configured mode. ``permits`` and ``rank`` place the
    product in a run of ``run_products``; without them it has a private
    pool of ``config.workers`` permits."""
    runner = {
        PipelineMode.FULL: run_full,
        PipelineMode.BASELINE: run_baseline,
        PipelineMode.ABLATED: run_ablated,
    }[config.mode]
    return runner(
        product, config, gateway, credential=credential, cache=cache, permits=permits, rank=rank
    )


def run_products(
    products: Sequence[ProductRecord],
    config: PipelineConfig,
    gateway: ChatBackend,
    *,
    credential: ApiCredential | None = None,
    cache: DiskResponseCache | None = None,
) -> Iterator[PipelineResult]:
    """Run each product once through ``run_product`` and yield the results
    in dataset order, each once it and every earlier product have finished.

    All products share ``config.workers`` permits, so that is the cap on
    LLM calls in flight for the run. The earliest unfinished product runs
    on the caller's thread. The next one starts, on a thread of its own,
    only when the earlier one parks a request in a backoff, and gets a
    permit only while the earlier one has a request parked. Without a
    ``cache``, the run opens the store at ``config.cache_dir`` once, for
    all its products.
    """
    lock = threading.Lock()
    lent: dict[int, Future[PipelineResult]] = {}
    unstarted = 0  # the earliest product not started yet

    def run(rank: int) -> PipelineResult:
        try:
            return run_product(
                products[rank], config, gateway,
                credential=credential, cache=cache, permits=permits, rank=rank,
            )
        finally:
            permits.finish(rank)
            lend()

    def lend() -> None:
        """Start the next product on a thread of its own if the products in
        progress all have a request parked."""
        nonlocal unstarted
        with lock:
            if unstarted < len(products) and permits.lending():
                permits.start(unstarted)
                lent[unstarted] = executor.submit(run, unstarted)
                unstarted += 1

    permits = _PermitPool(config.workers, on_park=lend)
    with _cache_for(config, cache) as cache, ThreadPoolExecutor(_PRODUCTS_IN_PROGRESS) as executor:
        try:
            for rank in range(len(products)):
                with lock:
                    future = lent.pop(rank, None)
                    if future is None:
                        permits.start(rank)
                        unstarted = rank + 1
                # A product not started in a lent permit runs on this thread,
                # so with no backoff the products run one after another.
                yield run(rank) if future is None else future.result()
        finally:
            with lock:
                unstarted = len(products)  # a closed run starts nothing more


def build_run_manifest(
    product: ProductRecord,
    config: PipelineConfig,
    result: PipelineResult,
    *,
    backend_label: str,
) -> dict[str, Any]:
    """The run manifest: mode, config echo (a credential never lives in the
    config, so nothing secret can leak here), call stats, failures."""
    return {
        "product_id": product.product_id,
        "title": product.title,
        "category": product.category,
        "mode": config.mode.value,
        "backend": backend_label,
        "config": config.to_dict(),
        "call_stats": result.report.call_stats.to_dict(),
        "failed_units": list(result.failed_units),
        "diagnostics": list(result.diagnostics),
    }
