"""Command-line entry point.

Subcommands: ``run`` executes a pipeline mode over a dataset and writes
reports, ``eval`` aggregates metrics and annotation tallies, and
``record-fixtures`` performs a live run whose response cache is the fixture
directory, then compacts it for replay. Recording thus writes through the
cache: a rerun into a partly recorded directory asks only for the answers it
lacks, identical requests of one product are sent once, and a request whose
every answer failed to parse leaves no fixture. Exit codes: 0 success, 1
fatal configuration or input error, 2 finished with failed review units.

The API credential enters through --api-key or the REVIEWLENS_API_KEY
environment variable, is read only for a live backend, and is handed to
that backend alone; it is never echoed, logged, or written to any output
file.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from .cache import DiskResponseCache
from .domain import ProductRecord, canonical_json, load_product_records
from .errors import DataFormatError
from .gateway import ApiCredential, HttpBackend, ReplayBackend
from .inputs import build, check_object, read_json
from .pipeline import (
    PipelineConfig,
    PipelineMode,
    PipelineResult,
    build_run_manifest,
    run_products,
)
from .store import write_atomic
from .structuring import ReportFormat, render_report

CREDENTIAL_ENV_VAR = "REVIEWLENS_API_KEY"
DEFAULT_BASE_URL = "https://generativelanguage.googleapis.com/v1beta/openai"

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_FAILED_UNITS = 2


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit code 1, as every fatal input error
    is; argparse's own 2 would read as "some reviews failed"."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_FATAL, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reviewlens",
        description="Mine product reviews for listing gaps and contradictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a pipeline mode over a dataset")
    _add_run_arguments(run)
    run.set_defaults(func=cmd_run)

    record = sub.add_parser(
        "record-fixtures",
        help="run live with a fixture directory as the response cache, for replay",
    )
    _add_run_arguments(record, recording=True)
    record.set_defaults(func=cmd_record_fixtures)

    evaluate = sub.add_parser("eval", help="aggregate metrics and annotation tallies")
    evaluate.add_argument("--runs", nargs="*", default=[], type=Path, help="run output directories")
    evaluate.add_argument("--dataset", type=Path, help="dataset JSON, for category lookup")
    evaluate.add_argument("--gold", type=Path, help="gold attribute sets JSON")
    evaluate.add_argument("--annotations", type=Path, help="error annotations JSONL")
    evaluate.add_argument("--criteria", type=Path, help="criterion annotations JSONL")
    evaluate.add_argument("--scores", type=Path, help="precision/recall rows JSON; prints F1")
    evaluate.add_argument("--product", help="product id for the mode comparison table")
    evaluate.set_defaults(func=cmd_eval)
    return parser


def _add_run_arguments(parser: argparse.ArgumentParser, *, recording: bool = False) -> None:
    parser.add_argument("--dataset", required=True, type=Path, help="product dataset JSON")
    parser.add_argument("--product", help="run only this product id")
    parser.add_argument("--config", type=Path, help="pipeline config JSON")
    parser.add_argument("--mode", choices=[m.value for m in PipelineMode], help="pipeline mode")
    parser.add_argument("--out", type=Path, help="output directory for reports")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        help="max LLM calls in flight for the whole run, served by that many threads besides the caller",
    )
    parser.add_argument(
        "--format",
        choices=["json", "markdown", "both"],
        default="both",
        help="report formats to write",
    )
    parser.add_argument("--base-url", default=DEFAULT_BASE_URL, help="chat API base URL")
    parser.add_argument("--api-key", help=f"API key; defaults to ${CREDENTIAL_ENV_VAR}")
    if recording:
        parser.add_argument(
            "--fixtures", required=True, type=Path, help="directory to write fixtures into"
        )
    else:
        parser.add_argument("--cache-dir", help="response cache directory; empty for none")
        parser.add_argument(
            "--backend", choices=["live", "replay"], default="replay", help="gateway backend"
        )
        parser.add_argument("--fixtures", type=Path, help="fixture directory for replay")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


def _fatal(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_FATAL


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    # The config file's object, with the run flags that were given laid over it.
    payload = {} if args.config is None else dict(read_json(args.config, check_object, ""))
    cache_dir = getattr(args, "cache_dir", None)  # record-fixtures has no --cache-dir
    flags = {"mode": args.mode, "workers": args.workers, "cache_dir": cache_dir}
    payload.update((key, value) for key, value in flags.items() if value is not None)
    return build("invalid config", PipelineConfig.from_dict, payload)


def _resolve_credential(args: argparse.Namespace) -> ApiCredential | None:
    # A refused key's message never quotes the key.
    if args.api_key:
        return build("invalid API key", ApiCredential, key=args.api_key)
    return build("invalid API key", ApiCredential.from_env, CREDENTIAL_ENV_VAR)


def _live_backend(args: argparse.Namespace, credential: ApiCredential) -> HttpBackend:
    # A refused URL's message names at most the scheme and host.
    return build("invalid base URL", HttpBackend, args.base_url, credential)


def _load_inputs(args: argparse.Namespace) -> tuple[PipelineConfig, list[ProductRecord]]:
    # Read before any backend, cache or output file opens: a bad input costs nothing.
    config, products = _load_config(args), load_product_records(args.dataset)
    if args.product is not None:
        products = [product for product in products if product.product_id == args.product]
        if not products:
            raise DataFormatError(f"product {args.product!r} not found in {args.dataset}")
    return config, products


def _report_formats(choice: str) -> list[ReportFormat]:
    if choice == "json":
        return [ReportFormat.JSON]
    if choice == "markdown":
        return [ReportFormat.MARKDOWN]
    return [ReportFormat.JSON, ReportFormat.MARKDOWN]


def _write_outputs(
    out_dir: Path,
    product: ProductRecord,
    config: PipelineConfig,
    result: PipelineResult,
    formats: Sequence[ReportFormat],
    backend_label: str,
) -> None:
    """Write the product's files, and remove each output file an earlier
    run left that this one does not write."""
    product_dir = out_dir / product.product_id
    product_dir.mkdir(parents=True, exist_ok=True)
    for fmt in ReportFormat:
        path = product_dir / f"report.{'json' if fmt is ReportFormat.JSON else 'md'}"
        if fmt in formats:
            write_atomic(path, render_report(result.report, fmt))
        else:
            path.unlink(missing_ok=True)
    manifest = build_run_manifest(product, config, result, backend_label=backend_label)
    write_atomic(product_dir / "manifest.json", canonical_json(manifest).encode("utf-8"))
    if config.mode is PipelineMode.BASELINE:
        (product_dir / "extractions.json").unlink(missing_ok=True)
    else:
        payload = {
            "product_id": product.product_id,
            "extractions": {
                review_id: [attr.to_dict() for attr in attrs]
                for review_id, attrs in sorted(result.extractions.items())
            },
        }
        write_atomic(product_dir / "extractions.json", canonical_json(payload).encode("utf-8"))


def _execute_run(
    args: argparse.Namespace, inputs, gateway, backend_label: str, cache: DiskResponseCache | None = None
) -> int:
    config, products = inputs
    formats = _report_formats(args.format)
    any_failures = False
    # Without a cache, the run opens the store at config.cache_dir once;
    # closing the generator, on success or on a crash, closes that store.
    with contextlib.closing(run_products(products, config, gateway, cache=cache)) as results:
        # Each product is written as soon as it and every earlier one are done.
        for product, result in zip(products, results):
            if args.out is not None:
                _write_outputs(args.out, product, config, result, formats, backend_label)
            stats = result.call_stats
            line = (
                f"{product.product_id}: mode={config.mode.value} calls={stats.total_calls}"
                f" (extraction={stats.extraction_calls} comparison={stats.comparison_calls}"
                f" grouping={stats.grouping_calls} cache_hits={stats.cache_hits}"
                f" retries={stats.retries})"
            )
            if result.failed_units:
                any_failures = True
                line += f" failed_units={list(result.failed_units)}"
            print(line)
            for note in result.diagnostics:
                print(f"note: {product.product_id}: {note}", file=sys.stderr)
    return EXIT_FAILED_UNITS if any_failures else EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    inputs = _load_inputs(args)
    if args.backend == "live":
        credential = _resolve_credential(args)
        if credential is None:
            return _fatal(
                f"live backend needs an API key; set {CREDENTIAL_ENV_VAR} or pass --api-key"
            )
        live = _live_backend(args, credential)
        try:
            return _execute_run(args, inputs, live, "live")
        finally:
            live.close()
    if args.fixtures is None:
        return _fatal("replay backend needs --fixtures")
    if not Path(args.fixtures).is_dir():
        return _fatal(f"fixture directory {args.fixtures} does not exist")
    return _execute_run(args, inputs, ReplayBackend(args.fixtures), "replay")


def cmd_record_fixtures(args: argparse.Namespace) -> int:
    inputs = _load_inputs(args)
    if inputs[0].cache_dir is not None:  # it would name a second store beside the fixtures
        return _fatal("record-fixtures records every answer and takes no cache_dir; drop it from the config")
    credential = _resolve_credential(args)
    if credential is None:
        return _fatal(
            f"recording runs live and needs an API key; set {CREDENTIAL_ENV_VAR} or pass --api-key"
        )
    store = DiskResponseCache(args.fixtures)  # the run's cache; the manifests show no cache_dir
    live = _live_backend(args, credential)
    try:
        code = _execute_run(args, inputs, live, "record", store)
        held = len(list(store))
    finally:
        live.close()
        store.compact()  # into one segment, sorted by fingerprint
    print(f"recorded into {args.fixtures}, which holds {held} fixture responses")
    return code


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation  # only this subcommand needs the harness

    emitted = False
    if args.scores is not None:
        print(evaluation.scores_table(args.scores), end="")
        emitted = True
    run_payloads = [evaluation.load_run_dir(run_dir) for run_dir in args.runs]
    if args.gold is not None:
        if not run_payloads:
            return _fatal("--gold needs at least one --runs directory")
        gold = evaluation.load_gold_sets(args.gold)
        products = load_product_records(args.dataset) if args.dataset is not None else []
        categories = {product.product_id: product.category for product in products}
        for run_dir, runs in zip(args.runs, run_payloads):
            rows = evaluation.category_metrics_rows(runs, gold, categories)
            if not rows:
                continue
            mode = next(iter(runs.values())).mode
            print(f"Attribute selection, {run_dir} (mode={mode}):")
            print(evaluation.render_metrics_table(rows), end="")
            emitted = True
    if args.annotations is not None:
        counts = evaluation.aggregate_errors(evaluation.load_error_annotations(args.annotations))
        print("Error tallies:")
        print(evaluation.render_error_table(counts), end="")
        emitted = True
    if args.criteria is not None:
        if len(run_payloads) < 3:
            return _fatal("--criteria needs three --runs directories (full, baseline, ablated)")
        print(evaluation.mode_comparison(run_payloads, args.criteria, args.product), end="")
        emitted = True
    if not emitted:
        return _fatal("nothing to evaluate; pass --scores, --gold, --annotations, or --criteria")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
