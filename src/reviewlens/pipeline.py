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
The runtime also counts cache hits and retries; the counts come back as
``PipelineResult.call_stats``, never inside the report. The runner never
sees a credential: a backend that needs one was built with it.

``workers`` caps the LLM calls in flight for a whole run: it is the number
of permits in one ``_PermitPool``, and a thread holds a permit while it
runs its product's work (the per-review drain loop, or the closing call).
A product's per-review tasks wait in one queue, drained by ``workers``
threads at most, the product's own included. The last drain thread to run
out of tasks keeps its permit for the closing call, so that call never
queues behind a later product. A task whose request backs off after a
transport error or malformed output runs the queue's next tasks on its own
thread until the backoff has passed. Helping is one level deep: a task run
inside a backoff sleeps through its own.

``run_products`` runs each product on a thread of its own, two at most at
once, and a free permit goes to the earliest product waiting for one, so a
later product only fills the permits the earlier one cannot use: the first
product starts at once, and the next one whenever a permit goes back with
nobody waiting for it or a product finishes. A permit goes back at the end
of a drain or of a closing call, and in a backoff after a transport error
or malformed output with nothing left in its product's queue, which gives
the permit back for the wait and takes one again after it. Every other
backoff, a throttled one included, sleeps holding its permit. A later
product hands its permit to an earlier one waiting for it before each
backend call. A run that is stopping (an exception, or the caller closing
it) starts no product, no queued review and no backend call. A direct call
of ``run_product`` gets a private pool of ``workers`` permits.

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
    ChatBackend,
    ChatRequest,
    ChatResponse,
    RetryPolicy,
    check_int,
    complete_parsed,
    config_kwargs,
)
from .grouping import build_grouping_prompt, collect_unique_keys, parse_grouping_response
from .prompt_library import render_prompt
from .structuring import build_report, merge_insights, parse_report_sections

T = TypeVar("T")

__all__ = [
    "PipelineMode",
    "PipelineConfig",
    "PipelineResult",
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
    mode: PipelineMode = PipelineMode.FULL

    def __post_init__(self) -> None:
        for name in ("extraction_model", "comparison_model", "grouping_model"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise TypeError(f"{name} must be a non-empty string, got {value!r}")
        check_int("workers", self.workers, 1)
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(f"retry must be a RetryPolicy, got {self.retry!r}")
        if not isinstance(self.cache_dir, (str, Path, type(None))):
            raise TypeError(f"cache_dir must be a path string or null, got {self.cache_dir!r}")
        # An empty path means no cache, not the working directory.
        cache_dir = None if self.cache_dir in (None, "") else Path(self.cache_dir)
        object.__setattr__(self, "cache_dir", cache_dir)
        try:
            mode = PipelineMode(self.mode)
        except ValueError:
            choices = ", ".join(repr(m.value) for m in PipelineMode)
            raise ValueError(f"mode must be one of {choices}, got {self.mode!r}") from None
        object.__setattr__(self, "mode", mode)

    def to_dict(self) -> dict[str, Any]:
        return {
            **asdict(self),
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


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """A product run: the report, which reviews failed, what went sideways,
    the per-review extractions (kept for the evaluation harness), and the
    run's call stats (for the manifest)."""

    report: StructuredReport
    failed_units: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()
    extractions: Mapping[str, tuple[ExtractedAttribute, ...]] = field(default_factory=dict)
    call_stats: CallStats = field(default_factory=CallStats)

    def __post_init__(self) -> None:
        object.__setattr__(self, "failed_units", tuple(self.failed_units))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        object.__setattr__(
            self,
            "extractions",
            {rid: tuple(attrs) for rid, attrs in dict(self.extractions).items()},
        )


_STEP_FAILURES = (ExhaustedRetriesError, GatewayError, MalformedOutputError)

# Products in progress at once in ``run_products``.
_PRODUCTS_IN_PROGRESS = 2

# How often the caller of ``run_products`` wakes while it waits for a
# product, so that a KeyboardInterrupt that reaches the main thread without
# waking it (``_thread.interrupt_main``, or a signal delivered to another
# thread) surfaces within this many seconds. Each wake costs about 0.1 ms
# of CPU on a 2-vCPU VM.
_WAKE_S = 0.05


class _Stopped(Exception):
    """Raised in place of a backend call, and by a product, once the run
    has stopped at or before the product's rank."""


class _PermitPool:
    """The permits of one run, one per LLM call in flight, shared by the
    products in progress. A product is known by its rank, its position in
    the dataset.

    A free permit goes to the earliest waiting rank, whatever the earlier
    ranks are doing, first come first served within a rank. A permit given
    back with nobody waiting for it calls ``on_release``. The pool also
    holds the run's stop: once ``stop(rank)`` is called, the products from
    ``rank`` on start nothing new.
    """

    def __init__(self, count: int, on_release: Callable[[], None] | None = None) -> None:
        self._cond = threading.Condition()
        self._on_release = on_release
        self._free = count
        self._waiting: list[tuple[int, int]] = []  # heap of (rank, ticket)
        self._tickets = itertools.count()
        self._stop_rank: int | None = None

    def stop(self, rank: int) -> None:
        with self._cond:
            if self._stop_rank is None or rank < self._stop_rank:
                self._stop_rank = rank

    def stopped(self, rank: int) -> bool:
        return self._stop_rank is not None and rank >= self._stop_rank

    def acquire(self, rank: int) -> None:
        with self._cond:
            self._take(rank)

    def release(self) -> None:
        """Give a permit back. With nobody waiting for it, call
        ``on_release``: the products in progress cannot use it now."""
        with self._cond:
            self._put_back()
            unwanted = not self._waiting
        if unwanted and self._on_release is not None:
            self._on_release()

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
        self._cond.wait_for(lambda: self._free > 0 and self._waiting[0] == ticket)
        heapq.heappop(self._waiting)
        self._free -= 1
        # The next waiter may be due a permit too.
        self._cond.notify_all()


@dataclass(slots=True)
class _Runtime:
    config: PipelineConfig
    gateway: ChatBackend
    cache: DiskResponseCache | None
    permits: _PermitPool
    rank: int
    # The product's call stats so far, by ``CallStats`` field name.
    _counts: dict[str, int] = field(default_factory=dict)
    # The product's queued per-review tasks, and which threads are running
    # one inside a backoff.
    _queue: collections.deque[Callable[[], None]] = field(default_factory=collections.deque)
    # Drain threads created and not yet done, and whether the product holds
    # a permit for its closing call.
    _drains: int = 0
    _holding: bool = False
    # With a cache, the requests this product's threads are resolving.
    _resolving: set[ChatRequest] = field(default_factory=set)
    _resolved: threading.Condition = field(default_factory=threading.Condition)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    def run_queued(self, tasks: list[Callable[[], None]]) -> None:
        """Run ``tasks`` on ``min(workers, len(tasks))`` threads, the caller's
        included, each holding a permit while it runs them, and return once
        every task has finished or the run has stopped. A task must not
        raise."""
        with self._lock:
            self._queue.extend(tasks)
            self._drains = min(self.config.workers, len(tasks))
        helpers = [threading.Thread(target=self._drain) for _ in range(self._drains - 1)]
        for helper in helpers:
            helper.start()
        try:
            self._drain()
        finally:
            with self._lock:
                self._queue.clear()
            for helper in helpers:
                helper.join()

    def _next_task(self) -> Callable[[], None] | None:
        with self._lock:
            if self._queue and not self.permits.stopped(self.rank):
                return self._queue.popleft()
            return None

    def _drain(self) -> None:
        """Run queued tasks holding a permit. The product's last drain
        thread to end keeps its permit for the closing call, so that call
        never queues behind a later product."""
        self.permits.acquire(self.rank)
        try:
            while (task := self._next_task()) is not None:
                task()
        finally:
            with self._lock:
                self._drains -= 1
                keep = self._holding = self._drains == 0
            if not keep:
                self.permits.release()

    def hold(self) -> None:
        """Hold a permit for the closing call: the one the last drain
        thread kept, else a new one. ``let_go`` gives it back."""
        if not self._holding:
            self.permits.acquire(self.rank)
            self._holding = True

    def let_go(self) -> None:
        if self._holding:
            self._holding = False
            self.permits.release()

    def idle(self, seconds: float) -> None:
        """Spend a backoff of ``seconds``: run queued tasks until it has
        passed, unless this thread is already inside one. Wait out what is
        left holding the permit while tasks are still queued, else give the
        permit back for the wait and take one again after it. A task
        started here may end after the backoff has passed."""
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
            self.permits.release()
            time.sleep(remaining)
            self.permits.acquire(self.rank)

    def record(self, name: str) -> None:
        """Count one of the product's calls, cache hits or retries."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1

    def complete(self, request: ChatRequest) -> ChatResponse:
        """One backend call, made once an earlier product that waits for a
        permit has been handed this thread's, and never once the run has
        stopped at this product."""
        self.permits.hand_over(self.rank)
        if self.permits.stopped(self.rank):
            raise _Stopped(f"run stopped before a backend call of product rank {self.rank}")
        return self.gateway.complete(request)

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
        self.record(counter)
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
            policy=self.config.retry,
            cache=self.cache,
            stats=self,
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
    outcome = _ReviewOutcome(review.review_id, diagnostics=[])
    request = build_extraction_prompt(review, product.title, model=runtime.config.extraction_model)
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
    request = build_comparison_prompt(
        attributes, product.seller_description, model=runtime.config.comparison_model
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
    stops the run from this product on at once, which drops the reviews not
    yet started. A product stopped by another raises ``_Stopped``. With no
    task (the baseline) there is nothing to collect and no permit is
    taken."""
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
                runtime.permits.stop(runtime.rank)

    runtime.run_queued([functools.partial(run, index) for index in range(len(reviews))])
    raised = [r for r in results if isinstance(r, BaseException) and not isinstance(r, _Stopped)]
    if raised:
        # The queue runs in dataset order, so a dropped review comes after
        # the one that raised.
        raise raised[0]
    if runtime.permits.stopped(runtime.rank):
        raise _Stopped(f"run stopped before product rank {runtime.rank} finished its reviews")
    outcomes = [r for r in results if isinstance(r, _ReviewOutcome)]
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
    """A mode's one closing call, made holding a permit that
    ``run_product`` gives back. It is the product's "+1", counted as
    grouping in every mode."""
    runtime.hold()
    return runtime.call("grouping_calls", request, parser, notes)


def _group(
    product: ProductRecord, reviews: _Collected, runtime: _Runtime
) -> tuple[list[Insight], CategoryAssignment]:
    """The full mode's closing call: one grouping call over the compared
    attributes' keys. If it fails permanently, every key goes to "Other"."""
    compared = [item for outcome in reviews.succeeded for item in outcome.compared]
    # Merged first, so the permit goes back as soon as the call returns.
    insights = merge_insights(compared)
    keys = collect_unique_keys(compared)
    assignment = CategoryAssignment()
    if keys:
        request = build_grouping_prompt(keys, model=runtime.config.grouping_model)
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
    return insights, assignment


def build_baseline_prompt(product: ProductRecord, *, model: str) -> ChatRequest:
    """One prompt holding the description and every review, asking for the
    finished report in a single step."""
    reviews_block = "\n".join(
        f"[{review.review_id}] {review.text}" for review in product.reviews
    )
    return render_prompt(
        "baseline_report",
        model=model,
        title=product.title,
        seller_description=product.seller_description,
        reviews_block=reviews_block,
        schema=REPORT_SCHEMA,
    )


def build_ablated_prompt(
    product: ProductRecord, attributes: list[ExtractedAttribute], *, model: str
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
    model = config.comparison_model
    if config.mode is PipelineMode.BASELINE:
        request = build_baseline_prompt(product, model=model) if product.reviews else None
    else:
        attributes = [attr for outcome in reviews.succeeded for attr in outcome.attributes]
        request = build_ablated_prompt(product, attributes, model=model) if attributes else None
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
        runtime = _Runtime(config, gateway, cache, permits, rank)
        try:
            reviews = _run_reviews(product, runtime, task)
            insights, assignment = close(product, reviews, runtime)
        except BaseException:
            # Stop first, so the permit given back below starts nothing.
            permits.stop(rank)
            raise
        finally:
            runtime.let_go()
    return PipelineResult(
        report=build_report(insights, assignment, product_id=product.product_id),
        failed_units=tuple(reviews.failed),
        diagnostics=tuple(reviews.diagnostics),
        extractions=reviews.extractions,
        call_stats=CallStats(**runtime._counts),
    )


def run_products(
    products: Sequence[ProductRecord],
    config: PipelineConfig,
    gateway: ChatBackend,
    *,
    cache: DiskResponseCache | None = None,
) -> Iterator[PipelineResult]:
    """Run each product once through ``run_product`` and yield the results
    in dataset order, each once it and every earlier product have finished.

    All products share ``config.workers`` permits, so that is the cap on
    LLM calls in flight for the run, and a free permit goes to the earliest
    product waiting for one. Products run on threads of their own, at most
    ``_PRODUCTS_IN_PROGRESS`` at once, while the caller waits for the next
    result. The first starts at once. The next one starts whenever a permit
    goes back with nobody waiting for it (at the end of a drain or of a
    closing call, or for the wait of a backoff) and whenever a product
    finishes. Without a ``cache``, the run opens the store at
    ``config.cache_dir`` once, for all its products.

    A run that is stopping starts nothing new: no product, no queued review
    and no backend call. An exception from a product stops the products
    from it on; the earlier ones finish and are yielded, and then it is
    raised. An exception in the caller's thread, or closing the generator,
    stops every product. Either way the exception surfaces once the calls
    in flight have returned.
    """
    lock = threading.Lock()
    started: dict[int, Future[PipelineResult]] = {}
    in_progress = 0
    unstarted = 0  # the earliest product not started yet

    def run(rank: int) -> PipelineResult:
        nonlocal in_progress
        try:
            return run_product(products[rank], config, gateway, cache=cache, permits=permits, rank=rank)
        finally:
            with lock:
                in_progress -= 1
            start_next()

    def start_next() -> None:
        nonlocal in_progress, unstarted
        with lock:
            if (
                unstarted < len(products)
                and in_progress < _PRODUCTS_IN_PROGRESS
                and not permits.stopped(unstarted)
            ):
                started[unstarted] = executor.submit(run, unstarted)
                in_progress += 1
                unstarted += 1

    permits = _PermitPool(config.workers, on_release=start_next)
    with _cache_for(config, cache) as cache, ThreadPoolExecutor(_PRODUCTS_IN_PROGRESS) as executor:
        try:
            start_next()
            for rank in range(len(products)):
                with lock:
                    future = started.pop(rank)
                yield _result(future)
        finally:
            with lock:
                permits.stop(0)


def _result(future: Future[T]) -> T:
    """``future.result()``, waiting in steps of ``_WAKE_S``."""
    done = threading.Lock()
    done.acquire()
    future.add_done_callback(lambda _: done.release())
    while not done.acquire(timeout=_WAKE_S):
        pass
    return future.result()


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
        "call_stats": result.call_stats.to_dict(),
        "failed_units": list(result.failed_units),
        "diagnostics": list(result.diagnostics),
    }
