"""Product isolation, a metamorphic relation: a product's run directory is
byte-identical whatever products run with it and in whatever order.

The datasets are the benchmark's seeded synthetic corpora, answered by
their canned model; ``perfbench/corpus.py`` is loaded read-only, as
``tests/test_corpus.py`` loads its script.
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

from reviewlens.cli import _write_outputs
from reviewlens.domain import ProductRecord
from reviewlens.pipeline import PipelineConfig, PipelineMode, run_products
from reviewlens.structuring import ReportFormat
from reviewlens.testing import CannedReviewModel

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
_spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
synthetic = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = synthetic  # its dataclasses look their module up
_spec.loader.exec_module(synthetic)

OUTPUTS = ("extractions.json", "manifest.json", "report.json", "report.md")


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
