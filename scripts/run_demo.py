#!/usr/bin/env python3
"""Replay the bundled corpus offline and print one finished report.

Usage: python3 scripts/run_demo.py [--product ID] [--mode full|baseline|ablated]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reviewlens.domain import load_product_records
from reviewlens.gateway import ReplayBackend
from reviewlens.pipeline import PipelineConfig, PipelineMode, run_product
from reviewlens.structuring import ReportFormat, render_report

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--product", default="app-mixer-001")
    parser.add_argument(
        "--mode", default="full", choices=[mode.value for mode in PipelineMode]
    )
    args = parser.parse_args()

    products = {p.product_id: p for p in load_product_records(TESTDATA / "dataset.json")}
    if args.product not in products:
        raise SystemExit(f"unknown product {args.product!r}; have {sorted(products)}")
    config = PipelineConfig(mode=PipelineMode(args.mode))
    gateway = ReplayBackend(TESTDATA / "fixtures")
    result = run_product(products[args.product], config, gateway)

    print(render_report(result.report, ReportFormat.MARKDOWN).decode("utf-8"))
    stats = result.call_stats
    print(
        f"[{stats.total_calls} calls: {stats.extraction_calls} extraction, "
        f"{stats.comparison_calls} comparison, {stats.grouping_calls} grouping]",
        file=sys.stderr,
    )
    for note in result.diagnostics:
        print(f"[note] {note}", file=sys.stderr)


if __name__ == "__main__":
    main()
