"""Orchestration: full, baseline, and ablated runs over one product.

``run_product`` is the one runner. A table gives each mode a per-review
task and one closing call:

- full: extract then compare each review, then one grouping call over the
  compared keys (2R + 1 calls for R productive reviews on a cold cache);
- ablated: extract each review, then one direct report call over the
  extracted attributes (R + 1);
- baseline: no per-review task, one direct report call over the reviews'
  text (1).

The runner opens the runtime (the run's permit pool and cache, or private
ones), runs the task over the reviews, makes the closing call holding a
permit, and builds the report once. The closing call is counted under
``grouping_calls`` in every mode, and none is made when there is nothing to
ask. Every request goes through ``_Runtime.call``, which counts it once,
when it is issued, and resolves it through the gateway's single retry loop.

``workers`` caps the LLM calls in flight for a whole run: it is the number
of permits in one ``_PermitPool``, and a thread holds a permit while it
runs its product's work (the per-review drain loop, or the closing
call). A product's per-review tasks wait in one queue,
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
``run_product`` gets a private pool of ``workers`` permits.

With a cache, a request identical to one that another thread of the same
product is resolving waits for it, holding its permit, and then reads the
answer from the cache, so a cold cached run sends each request once.
Requests of other products are never waited for: a later product's request
may have handed its permit to the earlier one, and would then wait for it
in turn.

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
    Insight,
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
    # With a cache, the requests this product's threads are resolving.
    _resolving: set[ChatRequest] = field(default_factory=set)
    _resolved: threading.Condition = field(default_factory=threading.Condition)
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
        with self.permits.holding(self.rank):
            while (task := self._next_task()) is not None:
                task()

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
        so backend calls = requests - cache hits + retries on every path.

        With a cache, a request identical to one another thread of this
        product is resolving waits, holding its permit, until that one is
        done, and then reads the answer from the cache as a hit; if that one
        failed, this one is resolved afresh. A task run inside a backoff does
        not wait, as its thread is itself resolving a request."""
        self.stats.record(counter)
        if self.cache is None or getattr(self._local, "helping", False):
            return self._resolve(request, parser, notes)
        with self._resolved:
            self._resolved.wait_for(lambda: request not in self._resolving)
            self._resolving.add(request)
        try:
            return self._resolve(request, parser, notes)
        finally:
            with self._resolved:
                self._resolving.remove(request)
                self._resolved.notify_all()

    def _resolve(
        self, request: ChatRequest, parser: Callable[[str, list[str]], T], notes: list[str]
    ) -> T:
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
    task: Callable[[Review, ProductRecord, _Runtime], _ReviewOutcome] | None,
) -> _Collected:
    """Run the per-review task through the runtime's queue and collect the
    outcomes in dataset order whatever the completion order. An exception
    that is not a step failure, a ``KeyboardInterrupt`` or ``SystemExit``
    on a helper thread included, is kept with its review, never raised
    inside the request whose backoff ran it, and re-raised here, in dataset
    order, once the queue has drained. One that is not an ``Exception``
    also drops the reviews not yet started. With no task (the baseline)
    there is nothing to collect and no permit is taken."""
    if task is None:
        return _Collected([], [], [], {})
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


def _closing_call(
    runtime: _Runtime,
    request: ChatRequest,
    parser: Callable[[str, list[str]], T],
    notes: list[str],
) -> T:
    """A mode's one closing call, made holding a permit. It is the
    product's "+1", counted as grouping in every mode."""
    with runtime.permits.holding(runtime.rank):
        return runtime.call("grouping_calls", request, parser, notes)


def _group(
    product: ProductRecord, reviews: _Collected, runtime: _Runtime
) -> tuple[list[Insight], CategoryAssignment]:
    """The full mode's closing call: one grouping call over the compared
    attributes' keys. If it fails permanently, every key goes to "Other"."""
    compared = [item for outcome in reviews.succeeded for item in outcome.compared]
    keys = collect_unique_keys(compared)
    assignment = CategoryAssignment()
    if keys:
        config = runtime.config
        request = build_grouping_prompt(
            keys,
            model=config.grouping_model,
            temperature=config.grouping_temperature,
            prompt_version=config.prompt_version,
        )
        try:
            assignment = _closing_call(
                runtime,
                request,
                lambda text, scratch: parse_grouping_response(text, keys, diagnostics=scratch),
                reviews.diagnostics,
            )
        except _STEP_FAILURES as exc:
            reviews.diagnostics.append(
                f"grouping failed permanently; every attribute assigned {OTHER_CATEGORY!r}: {exc}"
            )
            assignment = CategoryAssignment(mapping={key: OTHER_CATEGORY for key in keys})
    return merge_insights(compared), assignment


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
    product: ProductRecord, reviews: _Collected, runtime: _Runtime
) -> tuple[list[Insight], CategoryAssignment]:
    """The baseline and ablated closing call: ask for the whole report, over
    the reviews' text (baseline) or the extracted attributes (ablated).

    Unparseable output after retries degrades to an empty report with a
    diagnostic; transport-level exhaustion fails every review, as the call
    covered them all.
    """
    config = runtime.config
    options = dict(
        model=config.comparison_model,
        temperature=config.comparison_temperature,
        prompt_version=config.prompt_version,
    )
    if config.mode is PipelineMode.BASELINE:
        request = build_baseline_prompt(product, **options) if product.reviews else None
    else:
        attributes = [attr for outcome in reviews.succeeded for attr in outcome.attributes]
        request = build_ablated_prompt(product, attributes, **options) if attributes else None
    if request is None:
        return [], CategoryAssignment()
    try:
        return _closing_call(
            runtime,
            request,
            lambda text, scratch: parse_report_sections(text, product.review_ids, diagnostics=scratch),
            reviews.diagnostics,
        )
    except _STEP_FAILURES as exc:
        malformed = isinstance(exc, MalformedOutputError) or (
            isinstance(exc, ExhaustedRetriesError)
            and isinstance(exc.last_error, MalformedOutputError)
        )
        if malformed:
            reviews.diagnostics.append(
                f"report payload unusable after retries; emitting empty report: {exc}"
            )
        else:
            reviews.diagnostics.append(f"direct report call failed permanently: {exc}")
            reviews.failed = list(product.review_ids)
        return [], CategoryAssignment()


# Each mode's per-review task (the baseline has none) and its closing call,
# which returns the report's insights and categories. A closing call adds its
# notes to the collected diagnostics, and may fail every review.
_MODES = {
    PipelineMode.FULL: (_extract_and_compare, _group),
    PipelineMode.ABLATED: (_extract, _direct_report),
    PipelineMode.BASELINE: (None, _direct_report),
}


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
    """Run one product in the configured mode: the mode's per-review task
    over the reviews, then its one closing call. ``permits`` and ``rank``
    place the product in a run of ``run_products``; without them it has a
    private pool of ``config.workers`` permits. Without a ``cache`` it opens
    the store at ``config.cache_dir``, if any."""
    task, close = _MODES[config.mode]
    if permits is None:
        permits = _PermitPool(config.workers)
    with _cache_for(config, cache) as cache:
        runtime = _Runtime(config, gateway, credential, cache, permits, rank)
        reviews = _run_reviews(product, runtime, task)
        insights, assignment = close(product, reviews, runtime)
    report = build_report(
        insights, assignment, product_id=product.product_id, stats=runtime.stats.snapshot()
    )
    return PipelineResult(
        report=report,
        failed_units=tuple(reviews.failed),
        diagnostics=tuple(reviews.diagnostics),
        extractions=reviews.extractions,
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
