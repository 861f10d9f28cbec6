"""Metamorphic relations of a run over the benchmark's seeded synthetic
corpora, answered by their canned model:

- product isolation: a product's run directory is byte-identical whatever
  products run with it and in whatever order;
- review permutation: permuting a product's reviews changes only the order
  of each insight's values and justifications, to their order of first
  appearance in the new review order;
- faults keyed by (stage, unit): reviews whose requests fail permanently are
  the failed units, the report is the one the product makes without them,
  and review permutation still holds.

``perfbench/corpus.py`` is loaded read-only, as ``tests/test_corpus.py``
loads its script.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib.util
import json
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlens.cli import _write_outputs
from reviewlens.comparison import OMITTED_JUSTIFICATION, build_comparison_prompt
from reviewlens.domain import ProductRecord, StructuredReport
from reviewlens.errors import TransportError
from reviewlens.extraction import build_extraction_prompt
from reviewlens.gateway import RetryPolicy
from reviewlens.pipeline import PipelineConfig, PipelineMode, run_product, run_products
from reviewlens.structuring import ReportFormat, render_report
from reviewlens.testing import CannedReviewModel

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
_spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
synthetic = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = synthetic  # its dataclasses look their module up
_spec.loader.exec_module(synthetic)

OUTPUTS = ("extractions.json", "manifest.json", "report.json", "report.md")
GROUPING_MARKER = "Attribute names (JSON):"
CONFIG = PipelineConfig(mode=PipelineMode.FULL, workers=4, retry=RetryPolicy(max_attempts=3, base_delay_ms=0))


def _write_run(out: Path, products, config, backend) -> None:
    with contextlib.closing(run_products(products, config, backend)) as results:
        for product, result in zip(products, results):
            _write_outputs(out, product, config, result, list(ReportFormat), "canned")


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_products_outputs_do_not_depend_on_the_others(tmp_path, seed, workers):
    corpus = synthetic.generate(seed)
    products = [ProductRecord.from_dict(record) for record in corpus.dataset()]
    model = CannedReviewModel.from_config(products, corpus.canned)
    config = PipelineConfig(mode=PipelineMode.FULL, workers=workers)
    for product in products:
        _write_run(tmp_path / "alone", [product], config, model)
    _write_run(tmp_path / "together", products[::-1], config, model)
    for product in products:
        alone, together = (tmp_path / run / product.product_id for run in ("alone", "together"))
        assert sorted(path.name for path in together.iterdir()) == list(OUTPUTS)
        for name in OUTPUTS:
            assert (together / name).read_bytes() == (alone / name).read_bytes(), (product.product_id, name)


@functools.lru_cache(maxsize=None)
def _corpus(seed: int):
    """The seed's products, canned model, and each (key, value)'s
    justification as the model's comparison answers give it."""
    corpus = synthetic.generate(seed)
    products = [ProductRecord.from_dict(record) for record in corpus.dataset()]
    canned = corpus.canned
    justifications = {(row["attribute"], row["value"]): row["justification"] for row in canned["comparisons"]}
    justifications.update(dict.fromkeys(map(tuple, canned["omit_comparison_pairs"]), OMITTED_JUSTIFICATION))
    return products, CannedReviewModel.from_config(products, canned), justifications


def _in_review_order(report: StructuredReport, reviews, extractions, justifications) -> StructuredReport:
    """``report`` with each insight's values and justifications in their
    order of first appearance in ``reviews``, by the rows each review
    extracted."""
    insights = []
    for insight in report.insights:
        rows = [
            (attr.value, justifications[(attr.key, attr.value)])
            for review in reviews
            for attr in extractions.get(review.review_id, ())
            if attr.key == insight.key and attr.value in insight.values
        ]
        values = tuple(dict.fromkeys(value for value, _ in rows))
        kept = tuple(justification for _, justification in rows if justification.strip())
        insights.append(dataclasses.replace(insight, values=values, justifications=kept))
    return StructuredReport(report.product_id, insights)


def _assert_permutation_holds(original, permuted, product, justifications) -> None:
    expected = _in_review_order(original.report, product.reviews, original.extractions, justifications)
    assert render_report(permuted.report, ReportFormat.JSON) == render_report(expected, ReportFormat.JSON)
    assert permuted.call_stats == original.call_stats
    assert permuted.extractions == original.extractions
    assert set(permuted.failed_units) == set(original.failed_units)
    assert Counter(permuted.diagnostics) == Counter(original.diagnostics)


def _shuffled(product: ProductRecord, rng: random.Random) -> ProductRecord:
    return dataclasses.replace(product, reviews=rng.sample(product.reviews, len(product.reviews)))


@pytest.mark.parametrize("seed", [1, 2])
def test_review_order_changes_only_the_order_of_values_and_justifications(seed):
    products, model, justifications = _corpus(seed)
    permuted = [_shuffled(product, random.Random(f"{seed}/{product.product_id}")) for product in products]
    originals = list(run_products(products, CONFIG, model))
    for product, original, result in zip(permuted, originals, run_products(permuted, CONFIG, model)):
        _assert_permutation_holds(original, result, product, justifications)


def _grouping_keys(request) -> list[str]:
    return json.loads(request.user_prompt.split(GROUPING_MARKER, 1)[1].split("\n\n", 1)[0])


class UnitFaults:
    """Fails requests by (stage, unit), as the benchmark's provider does:
    a review's extraction or comparison planned "permanent" fails on every
    attempt, one planned "transient" on its first only. Requests are told
    apart by their prompts, built from a clean run of the product. It
    records the grouping requests it is sent."""

    def __init__(self, inner, product: ProductRecord, clean, plan: dict[tuple[str, str], str]):
        prompts = {}
        for review in product.reviews:
            extraction = build_extraction_prompt(review, product.title, model=CONFIG.extraction_model)
            prompts[("extraction", review.review_id)] = extraction.user_prompt
            if attributes := clean.extractions[review.review_id]:
                comparison = build_comparison_prompt(
                    list(attributes), product.seller_description, model=CONFIG.comparison_model
                )
                prompts[("comparison", review.review_id)] = comparison.user_prompt
        self.inner = inner
        self._plan = {prompts[unit]: kind for unit, kind in plan.items()}
        self._lock = threading.Lock()
        self.grouping: list = []

    def complete(self, request):
        prompt = request.user_prompt
        with self._lock:
            kind = self._plan.get(prompt)
            if kind == "transient":
                del self._plan[prompt]
            if GROUPING_MARKER in prompt:
                self.grouping.append(request)
        if kind is not None:
            raise TransportError(f"injected {kind} fault")
        return self.inner.complete(request)


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from([1, 2]), data=st.data())
def test_faults_keyed_by_unit_fail_their_reviews_and_keep_review_order_free(seed, data):
    """Permanently failed reviews are the failed units, in dataset order,
    and the report and grouping request are those of the product without
    them: the request holds the keys the other reviews extracted. Transient
    faults change nothing but the retries. Review permutation holds under
    the same faults."""
    products, model, justifications = _corpus(seed)
    product = data.draw(st.sampled_from(products), label="product")
    clean = run_product(product, CONFIG, model)
    units = [("extraction", rid) for rid in product.review_ids]
    units += [("comparison", rid) for rid in product.review_ids if clean.extractions[rid]]
    plan = data.draw(
        st.dictionaries(st.sampled_from(units), st.sampled_from(["permanent", "transient"]), max_size=5),
        label="faults",
    )
    order = data.draw(st.permutations(product.reviews), label="order")
    workers = data.draw(st.sampled_from([1, 4]), label="workers")
    config = dataclasses.replace(CONFIG, workers=workers)

    # A review whose extraction fails never sends its comparison.
    sent = {
        (stage, rid): kind
        for (stage, rid), kind in plan.items()
        if stage == "extraction" or plan.get(("extraction", rid)) != "permanent"
    }
    permanent = {rid for (_, rid), kind in sent.items() if kind == "permanent"}
    failed = tuple(rid for rid in product.review_ids if rid in permanent)
    rest = dataclasses.replace(product, reviews=[r for r in product.reviews if r.review_id not in failed])
    reference = UnitFaults(model, product, clean, {})
    expected = run_product(rest, CONFIG, reference)

    faulted = UnitFaults(model, product, clean, plan)
    result = run_product(product, config, faulted)
    assert result.failed_units == failed
    assert render_report(result.report, ReportFormat.JSON) == render_report(expected.report, ReportFormat.JSON)
    assert faulted.grouping == reference.grouping
    keys = sorted({attr.key for rid in rest.review_ids for attr in clean.extractions[rid]})
    assert [_grouping_keys(request) for request in faulted.grouping] == ([keys] if keys else [])
    assert result.call_stats.retries == len(sent) + sum(kind == "permanent" for kind in sent.values())

    permuted = dataclasses.replace(product, reviews=order)
    shuffled = run_product(permuted, config, UnitFaults(model, product, clean, plan))
    _assert_permutation_holds(result, shuffled, permuted, justifications)
