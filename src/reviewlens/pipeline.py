"""Orchestration: full, baseline, and ablated runs over products.

``run_product`` runs one product and ``run_products`` a dataset. A table
gives each mode a per-review task and one closing call:

- full: extract then compare each review, then one grouping call over the
  compared keys (2R + 1 calls for R productive reviews on a cold cache);
- ablated: extract each review, then one direct report call over the
  extracted attributes (R + 1);
- baseline: no per-review task, one direct report call over the reviews'
  text (1).

The closing call is counted under ``grouping_calls`` in every mode, and
none is made when there is nothing to ask. Every stage is sans-I/O: a
generator that yields each request it needs and is sent the parsed output,
or has the step failure thrown in; it never calls a backend itself. The
scheduler resolves those requests through ``complete_parsed``, whose retry
loop yields each backoff rather than sleeping, with the stage's unit as the
backend: the unit notes how each call it passes on ended.

One ``_Scheduler`` serves a run on ``workers`` threads of its own, while
the caller only waits for results. Each thread holds a permit while it
advances a stage to its next yield, so ``workers`` caps the LLM calls in
flight. Ready stages are taken by ``(product rank, level, review index)``,
the level being the requests a stage has resolved: the longest remaining
chain goes first, so a product's last comparisons run side by side and its
grouping call starts sooner. A stage backing off keeps its level and waits
on a heap of deadlines, holding no thread and no permit. A thread goes on
with the stage it advanced while it is the first ready one, so a call makes
no thread hand-off, and a later product's first request is built only when
no earlier request is ready. In a cached run, a request identical to one of
the same product in flight waits for it, holding no permit. A stopping run
(an exception, or the caller closing it) advances no stage of the products
it stopped, so it starts no backend call for them.

Run state changes in one place, ``_Scheduler._settle``, under the run's one
lock, after each advance. An advance makes at most one attempt, so settling
counts what it yielded (a request, or a backoff, which is a retry) and the
backend call the unit noted. That gives each product's
``PipelineResult.call_stats``, never inside the report: every request and
retry is one attempt, a cache hit or a backend call. The call's end also
sets the run's limit on permits (AIMD): a 429 halves it, so a throttled
provider sees the load drop, and each answer grows it back. The runner
never sees a credential: a backend that needs one was built with it.

Scheduling never leaks into results: per-review outcomes are collected in
dataset order regardless of completion order, so report bytes are identical
for any worker count. A review that fails permanently becomes a failed
unit; the rest of the product still reports.
"""

from __future__ import annotations

import contextlib
import enum
import heapq
import json
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Generator, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .cache import DiskResponseCache
from .comparison import build_comparison_prompt, parse_comparison_response
from .domain import (
    AttributeKey,
    CallStats,
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
    RateLimitedError,
)
from .extraction import build_extraction_prompt, parse_extraction_response
from .gateway import ChatBackend, ChatRequest, ChatResponse, RetryPolicy, complete_parsed
from .grouping import build_grouping_prompt, collect_unique_keys, parse_grouping_response
from .inputs import check_choice, check_int, check_string, config_kwargs
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
            check_string(getattr(self, name), name)
        check_int(self.workers, "workers", 1)
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(f"retry must be a RetryPolicy, got {self.retry!r}")
        if not isinstance(self.cache_dir, (str, Path, type(None))):
            raise ValueError(f"cache_dir must be a path string or null, got {self.cache_dir!r}")
        # An empty path means no cache, not the working directory.
        cache_dir = None if self.cache_dir in (None, "") else Path(self.cache_dir)
        object.__setattr__(self, "cache_dir", cache_dir)
        mode = check_choice(self.mode, "mode", [m.value for m in PipelineMode])
        object.__setattr__(self, "mode", PipelineMode(mode))

    def to_dict(self) -> dict[str, Any]:
        return {
            **asdict(self),
            "cache_dir": None if self.cache_dir is None else str(self.cache_dir),
            "mode": self.mode.value,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "PipelineConfig":
        """Build a config from a JSON object holding only field names;
        ``retry``, if present, is such an object for ``RetryPolicy``."""
        kwargs = config_kwargs(cls, payload, "config")
        if "retry" in kwargs:
            kwargs["retry"] = RetryPolicy(**config_kwargs(RetryPolicy, kwargs["retry"], "retry"))
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


_STEP_FAILURES = (ExhaustedRetriesError, GatewayError)

# How often the caller of a run wakes while it waits, so that a
# KeyboardInterrupt that reaches the main thread without waking it
# (``_thread.interrupt_main``, or a signal delivered to another thread)
# surfaces within this many seconds. Each wake costs about 0.1 ms of CPU on
# a 2-vCPU VM.
_WAKE_S = 0.05


class _Ask(NamedTuple):
    """A stage's request: the ``CallStats`` field it is counted under, the
    request, its parser and the notes a successful parse adds to."""

    counter: str
    request: ChatRequest
    parser: Callable[[str, list[str]], Any]
    notes: list[str]


@dataclass(slots=True, eq=False)
class _Unit:
    """A stage of one product as the scheduler runs it: a per-review task,
    or the product's closing stage, whose ``index`` is the number of
    reviews. Each ``advance`` runs it to its next yield, the request it is
    about to resolve or a backoff in seconds, or to its end, when ``value``
    is what it returned or raised. ``flight`` is the request it resolves in
    a cached run, for as long as it does.

    The unit is its requests' door to the backend: ``complete`` notes in
    ``call`` how the advance's backend call ended, if it made one. One
    thread at a time advances a unit, and the scheduler reads the note when
    it settles the unit, so the note takes no lock."""

    rank: int
    index: int
    backend: ChatBackend
    steps: Generator[Any, None, Any] | None = None
    wait: Any = None
    done: bool = False
    value: Any = None
    flight: ChatRequest | None = None
    call: str | None = None  # "answered", "throttled" or "failed"
    level: int = 0  # requests resolved, which orders a product's ready units

    def advance(self) -> None:
        self.call = None
        try:
            self.wait = next(self.steps)
        except StopIteration as stop:
            self.done, self.value = True, stop.value
        except BaseException as exc:
            self.done, self.value = True, exc

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.call = "failed"
        try:
            response = self.backend.complete(request)
        except RateLimitedError:
            self.call = "throttled"
            raise
        self.call = "answered"
        return response


@dataclass(slots=True)
class _Admitted:
    """A product admitted to a run: what each of its units returned or
    raised, by index (the reviews', then the closing unit's); in a cached
    run, the requests its units are resolving, each with the units waiting
    for it; and its call counts so far: requests by ``CallStats`` field and
    retries in ``counts``, backend calls in ``calls``. The scheduler keeps
    it, under its lock."""

    outcomes: list[Any]
    pending: int  # review units not done yet
    result: PipelineResult | None = None
    flights: dict[ChatRequest, list[_Unit]] = field(default_factory=dict)
    counts: Counter[str] = field(default_factory=Counter)
    calls: int = 0


@dataclass(slots=True)
class _ReviewOutcome:
    review_id: str
    diagnostics: list[str]
    attributes: list[ExtractedAttribute] = field(default_factory=list)
    compared: list[ComparedAttribute] = field(default_factory=list)
    failed_stage: str | None = None


def _extract(
    review: Review, product: ProductRecord, config: PipelineConfig
) -> Generator[_Ask, Any, _ReviewOutcome]:
    """The per-review extraction task, shared by the full and ablated modes."""
    outcome = _ReviewOutcome(review.review_id, diagnostics=[])
    request = build_extraction_prompt(review, product.title, model=config.extraction_model)
    try:
        outcome.attributes = yield _Ask(
            "extraction_calls",
            request,
            lambda text, _scratch: parse_extraction_response(text, review.review_id),
            outcome.diagnostics,
        )
    except _STEP_FAILURES as exc:
        outcome.diagnostics.append(f"review {review.review_id}: extraction failed permanently: {exc}")
        outcome.failed_stage = "extraction"
    return outcome


def _extract_and_compare(
    review: Review, product: ProductRecord, config: PipelineConfig
) -> Generator[_Ask, Any, _ReviewOutcome]:
    """The chained per-review task: extraction feeds comparison directly."""
    outcome = yield from _extract(review, product, config)
    attributes = outcome.attributes
    if outcome.failed_stage is not None or not attributes:
        return outcome
    request = build_comparison_prompt(attributes, product.seller_description, model=config.comparison_model)
    try:
        outcome.compared = yield _Ask(
            "comparison_calls",
            request,
            lambda text, scratch: parse_comparison_response(text, attributes, diagnostics=scratch),
            outcome.diagnostics,
        )
    except _STEP_FAILURES as exc:
        outcome.diagnostics.append(f"review {review.review_id}: comparison failed permanently: {exc}")
        outcome.failed_stage = "comparison"
    return outcome


# A closing call's result: the report's uncategorized insights, their
# categories by key, and whether the call failed every review.
_Closing = Generator[_Ask, Any, tuple[list[Insight], dict[AttributeKey, str], bool]]


def _group(
    product: ProductRecord, succeeded: list[_ReviewOutcome], notes: list[str], config: PipelineConfig
) -> _Closing:
    """The full mode's closing call: one grouping call over the compared
    attributes' keys. If it fails permanently, every key goes to "Other"."""
    compared = [item for outcome in succeeded for item in outcome.compared]
    insights = merge_insights(compared)
    keys = collect_unique_keys(compared)
    categories: dict[AttributeKey, str] = {}
    if keys:
        request = build_grouping_prompt(keys, model=config.grouping_model)
        try:
            categories = yield _Ask(
                "grouping_calls",
                request,
                lambda text, scratch: parse_grouping_response(text, keys, diagnostics=scratch),
                notes,
            )
        except _STEP_FAILURES as exc:
            notes.append(f"grouping failed permanently; every attribute assigned {OTHER_CATEGORY!r}: {exc}")
    return insights, categories, False


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
    product: ProductRecord, succeeded: list[_ReviewOutcome], notes: list[str], config: PipelineConfig
) -> _Closing:
    """The baseline and ablated closing call: ask for the whole report, over
    the reviews' text (baseline) or the extracted attributes (ablated).

    Unparseable output after retries degrades to an empty report with a
    diagnostic; transport-level exhaustion fails every review, as the call
    covered them all.
    """
    model = config.comparison_model
    if config.mode is PipelineMode.BASELINE:
        request = build_baseline_prompt(product, model=model) if product.reviews else None
    else:
        attributes = [attr for outcome in succeeded for attr in outcome.attributes]
        request = build_ablated_prompt(product, attributes, model=model) if attributes else None
    if request is None:
        return [], {}, False
    try:
        insights, categories = yield _Ask(
            "grouping_calls",
            request,
            lambda text, scratch: parse_report_sections(text, product.review_ids, diagnostics=scratch),
            notes,
        )
    except _STEP_FAILURES as exc:
        if isinstance(getattr(exc, "last_error", None), MalformedOutputError):
            notes.append(f"report payload unusable after retries; emitting empty report: {exc}")
            return [], {}, False
        notes.append(f"direct report call failed permanently: {exc}")
        return [], {}, True
    return insights, categories, False


# Each mode's per-review task (the baseline has none) and its closing call.
# A closing call is the product's "+1", counted as grouping in every mode.
# It is given the succeeded review outcomes in dataset order and the
# product's notes so far, adds its own notes to them, and returns a
# ``_Closing`` result.
_MODES = {
    PipelineMode.FULL: (_extract_and_compare, _group),
    PipelineMode.ABLATED: (_extract, _direct_report),
    PipelineMode.BASELINE: (None, _direct_report),
}


def _close(
    product: ProductRecord, outcomes: list[Any], config: PipelineConfig
) -> Generator[_Ask, Any, PipelineResult]:
    """The product's closing stage, run once every review is done: an
    exception kept with a review is raised here, the first in dataset
    order; otherwise the mode's closing call, then the result, to which the
    scheduler adds the call stats."""
    raised = [o for o in outcomes if isinstance(o, BaseException)]
    if raised:
        raise raised[0]
    succeeded = [o for o in outcomes if o.failed_stage is None]
    notes = [note for o in outcomes for note in o.diagnostics]
    insights, categories, failed_all = yield from _MODES[config.mode][1](product, succeeded, notes, config)
    failed = [o.review_id for o in outcomes if o.failed_stage is not None]
    return PipelineResult(
        report=build_report(insights, categories, product_id=product.product_id),
        failed_units=product.review_ids if failed_all else tuple(failed),
        diagnostics=tuple(notes),
        extractions={o.review_id: tuple(o.attributes) for o in outcomes if o.failed_stage != "extraction"},
    )


class _Scheduler:
    """One run's work, served by ``helpers`` threads of its own.

    Ready units wait in a heap keyed by ``(product rank, level, index)``,
    the level being the requests a unit has resolved, so the longest chain
    left goes first (Hu, 1961): a product's last comparisons run side by
    side and its grouping call starts sooner. Units backing off keep their
    level in a heap of deadlines. A thread takes a permit and the first
    ready unit, advances it with the lock released, then under one hold of
    the lock settles it and takes the first ready one again, usually the
    same. A product is admitted, its units built, only when no unit is
    ready, and gets its closing unit once its reviews are done. The helpers
    start with the scheduler (``run_products`` starts ``workers``; a test
    may serve a run on its own thread with none), and ``result`` only waits.

    At most ``int(limit)`` permits are out at once. The limit starts at
    ``workers``, its ceiling; a throttled call halves it, to a floor of 1,
    and each answered call adds ``1 / limit`` (AIMD).

    A stop at a rank stops the products from it on: none of their units is
    advanced again. A review that raises a non-``Exception`` stops its
    product at once; any other exception is kept with its review and raised
    by the closing unit; the closing unit's exception stops its product.
    ``close`` stops every product.
    """

    def __init__(
        self, products: Sequence[ProductRecord], config: PipelineConfig, gateway: ChatBackend,
        cache: DiskResponseCache | None, helpers: int,
    ) -> None:
        lock = threading.Lock()
        self._work = threading.Condition(lock)  # idle threads wait for work here
        self._results = threading.Condition(lock)  # the caller of run_products waits here
        self._products = products
        self._config = config
        self._gateway = gateway
        self._cache = cache
        self._limit = float(config.workers)
        self._in_flight = 0  # permits out: units being advanced
        self._admitted: list[_Admitted] = []
        self._unfinished = 0  # the first product without a result
        self._stop = len(products)  # products from this rank on start nothing
        self._ready: list[tuple[int, int, int, _Unit]] = []
        # (deadline, rank, index, unit): a unit is here at most once, so no tie reaches it.
        self._timers: list[tuple[float, int, int, _Unit]] = []
        self._helpers: list[threading.Thread] = []
        try:
            for _ in range(helpers):
                helper = threading.Thread(target=self._serve)
                helper.start()
                self._helpers.append(helper)
        except BaseException:
            self.close()
            raise

    def result(self, rank: int) -> PipelineResult:
        """Product ``rank``'s result, once it has one. A product that
        stopped raises the first exception kept with it in dataset order,
        once the run is closed and the calls in flight have returned."""
        with self._results:
            while not self._done(rank):
                self._results.wait(_WAKE_S)
        product = self._admitted[rank]
        if product.result is None:
            self.close()
            raise next(o for o in product.outcomes if isinstance(o, BaseException))
        return product.result

    def close(self) -> None:
        """Stop every product and wait for the helper threads to return."""
        with self._work:
            self._stop_from(0)
        for helper in self._helpers:
            helper.join()

    def _stop_from(self, rank: int) -> None:
        self._stop = min(self._stop, rank)
        self._work.notify_all()
        self._results.notify_all()

    def _done(self, rank: int) -> bool:
        return rank >= self._stop or (rank < len(self._admitted) and self._admitted[rank].result is not None)

    def _serve(self) -> None:
        """Advance units until ``_next`` has none."""
        unit = None
        while True:
            with self._work:
                if unit is not None:
                    self._settle(unit)
                unit = self._next()
                if unit is None:
                    return
            unit.advance()

    def _next(self) -> _Unit | None:
        """The first ready unit, with a permit taken for it, waiting until
        there is one. None once every product before the stop is done.
        Called holding the lock."""
        while True:
            if self._unfinished >= self._stop:
                return None
            now = time.monotonic()
            timers = self._timers
            while timers and timers[0][0] <= now:
                self._push(heapq.heappop(timers)[3])
            if self._in_flight < int(self._limit) and (unit := self._first_ready()) is not None:
                self._in_flight += 1
                # More work for another thread: a ready unit, or a product to admit.
                if (self._ready or len(self._admitted) < self._stop) and self._in_flight < int(self._limit):
                    self._work.notify()
                return unit
            self._work.wait(timers[0][0] - now if timers else None)

    def _first_ready(self) -> _Unit | None:
        """Pop the first ready unit of a product not stopped, admitting the
        next product while there is none."""
        while True:
            while self._ready:
                unit = heapq.heappop(self._ready)[3]
                if unit.rank < self._stop:
                    return unit
            rank = len(self._admitted)
            if rank >= self._stop:
                return None
            self._admit(rank)

    def _admit(self, rank: int) -> None:
        product = self._products[rank]
        task = _MODES[self._config.mode][0]
        reviews = product.reviews if task is not None else ()
        self._admitted.append(_Admitted([None] * (len(reviews) + 1), len(reviews)))
        for index, review in enumerate(reviews):
            self._push_stage(rank, index, task(review, product, self._config))
        if not reviews:
            self._push_closing(rank)

    def _push_closing(self, rank: int) -> None:
        outcomes = self._admitted[rank].outcomes
        self._push_stage(rank, len(outcomes) - 1, _close(self._products[rank], outcomes[:-1], self._config))

    def _push_stage(self, rank: int, index: int, stage: Generator[_Ask, Any, Any]) -> None:
        unit = _Unit(rank, index, self._gateway)
        unit.steps = self._drive(stage, unit)
        self._push(unit)

    def _push(self, unit: _Unit) -> None:
        heapq.heappush(self._ready, (unit.rank, unit.level, unit.index, unit))

    def _drive(self, stage: Generator[_Ask, Any, T], unit: _Unit) -> Generator[Any, None, T]:
        """Run ``stage`` as ``unit``: resolve each request it yields through
        ``complete_parsed``, with ``unit`` as the backend, sending it the
        parsed output or throwing in the step failure. Each request is
        yielded before it is resolved, so the scheduler can check its
        priority, the limit, the stop and single-flight, and then each
        backoff of its retry loop. So an advance makes at most one attempt,
        a cache hit or one backend call."""
        value: Any = None
        error: BaseException | None = None
        while True:
            try:
                ask = stage.send(value) if error is None else stage.throw(error)
            except StopIteration as stop:
                return stop.value
            yield ask
            value = error = None
            try:
                value = yield from complete_parsed(
                    ask.request, ask.parser, gateway=unit, policy=self._config.retry,
                    cache=self._cache, diagnostics=ask.notes,
                )
            except _STEP_FAILURES as exc:
                error = exc
            unit.level += 1

    def _settle(self, unit: _Unit) -> None:
        """Fold in what an advance of ``unit`` left, then put the unit
        back: ready, on a timer, behind an identical request in flight, or
        done. Called holding the lock, so this is where run state changes.

        The advance's permit comes back, and its backend call, if it made
        one, is counted and takes the AIMD step. A request or a backoff it
        yielded counts one request or one retry. Every request and retry is
        one attempt, a cache hit or a backend call, so backend calls =
        requests - cache hits + retries on every path."""
        self._in_flight -= 1
        product = self._admitted[unit.rank]
        if unit.call is not None:
            product.calls += 1
            if unit.call == "throttled":
                self._limit = max(1.0, self._limit / 2)
            elif unit.call == "answered":
                self._limit = min(float(self._config.workers), self._limit + 1 / self._limit)
        wait = unit.wait
        if not unit.done:
            product.counts[wait.counter if isinstance(wait, _Ask) else "retries"] += 1
        if unit.flight is not None and (unit.done or isinstance(wait, _Ask)):
            self._land(unit)
        if unit.done:
            self._record(unit)
        elif unit.rank >= self._stop:
            pass  # dropped with its product
        elif isinstance(wait, _Ask) and self._cache is not None and self._park(unit):
            pass
        elif isinstance(wait, float) and wait > 0:
            entry = (time.monotonic() + wait, unit.rank, unit.index, unit)
            heapq.heappush(self._timers, entry)
            if self._timers[0] is entry:
                self._work.notify()  # a thread's wait may end later than this deadline
        else:
            self._push(unit)

    def _park(self, unit: _Unit) -> bool:
        """Single-flight, for cached runs: park ``unit`` behind the request
        of its product identical to the one it is about to resolve, if one
        is in flight, holding no permit. Else it becomes that request's
        flight."""
        flights = self._admitted[unit.rank].flights
        request = unit.wait.request
        if request in flights:
            flights[request].append(unit)
            return True
        flights[request], unit.flight = [], request
        return False

    def _land(self, unit: _Unit) -> None:
        """``unit``'s request is resolved: the first unit waiting for it
        becomes its flight and reads the answer from the cache, or resolves
        it afresh if it failed; the others wait for that one."""
        waiters = self._admitted[unit.rank].flights.pop(unit.flight)
        unit.flight = None
        for waiter in waiters:
            if not self._park(waiter):
                self._push(waiter)

    def _record(self, unit: _Unit) -> None:
        product = self._admitted[unit.rank]
        product.outcomes[unit.index] = value = unit.value
        if unit.index < len(product.outcomes) - 1:  # a review
            product.pending -= 1
            if isinstance(value, BaseException) and not isinstance(value, Exception):
                self._stop_from(unit.rank)
            elif not product.pending and unit.rank < self._stop:
                self._push_closing(unit.rank)
        elif isinstance(value, BaseException):
            self._stop_from(unit.rank)
        else:
            # The product's last advance is folded in: its counts are whole.
            hits = sum(product.counts.values()) - product.calls
            product.result = replace(value, call_stats=CallStats(**product.counts, cache_hits=hits))
            admitted = self._admitted
            while self._unfinished < len(admitted) and admitted[self._unfinished].result is not None:
                self._unfinished += 1
            self._results.notify_all()
            if self._unfinished >= self._stop:
                self._work.notify_all()  # the run is over: idle helpers return


def run_product(
    product: ProductRecord,
    config: PipelineConfig,
    gateway: ChatBackend,
    *,
    cache: DiskResponseCache | None = None,
    scheduler: _Scheduler | None = None,
    rank: int = 0,
) -> PipelineResult:
    """Run one product in the configured mode: the mode's per-review task
    over the reviews, then its one closing call.

    Alone, this is a run of ``run_products`` over this one product. In such
    a run, ``scheduler`` holds the product already at ``rank``, and this
    only waits for its result."""
    if scheduler is None:
        with contextlib.closing(run_products([product], config, gateway, cache=cache)) as run:
            return next(run)
    return scheduler.result(rank)


def run_products(
    products: Sequence[ProductRecord],
    config: PipelineConfig,
    gateway: ChatBackend,
    *,
    cache: DiskResponseCache | None = None,
) -> Iterator[PipelineResult]:
    """Run each product once and yield the results in dataset order, each
    through ``run_product`` once it and every earlier product have
    finished.

    One scheduler serves the whole run on ``config.workers`` threads of
    its own, which share ``config.workers`` permits, so that is
    the cap on LLM calls in flight; the caller only waits. A free permit
    goes to the first ready stage by ``(product rank, level, review
    index)``, the longest remaining chain first, so a product's last
    comparisons run side by side and its grouping call starts sooner. The
    next product starts only when no stage of an earlier one is ready.
    Without a ``cache``, the run opens the store at ``config.cache_dir``,
    if any, once for all its products, and closes it at the end.

    A run that is stopping starts nothing new: no product, no stage and no
    backend call. An exception from a product stops the products from it
    on; the earlier ones finish and are yielded, and then it is raised. An
    exception in the caller's thread, or closing the generator, stops every
    product. Either way the exception surfaces once the calls in flight
    have returned.
    """
    with contextlib.ExitStack() as stack:
        if cache is None and config.cache_dir is not None:
            cache = stack.enter_context(DiskResponseCache(config.cache_dir))
        scheduler = _Scheduler(products, config, gateway, cache, config.workers)
        stack.callback(scheduler.close)
        for rank, product in enumerate(products):
            yield run_product(product, config, gateway, cache=cache, scheduler=scheduler, rank=rank)


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
        "call_stats": asdict(result.call_stats),
        "failed_units": list(result.failed_units),
        "diagnostics": list(result.diagnostics),
    }
