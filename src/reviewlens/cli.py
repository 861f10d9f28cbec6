"""Command-line entry point.

Subcommands: ``run`` executes a pipeline mode over a dataset and writes
reports, ``eval`` aggregates metrics and annotation tallies, and
``record-fixtures`` performs a live run while capturing every response for
later replay. Exit codes: 0 success, 1 fatal configuration or input error,
2 finished with failed review units.

The API credential enters through --api-key or the REVIEWLENS_API_KEY
environment variable, is read only for a live backend, and is handed to
that backend alone; it is never echoed, logged, or written to any output
file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Iterable, NoReturn, Sequence

from .domain import (
    ProductRecord,
    StructuredReport,
    canonical_json,
    load_product_records,
)
from .errors import DataFormatError
from .evaluation import (
    CategoryMetrics,
    aggregate_errors,
    compare_modes,
    f1,
    load_criterion_annotations,
    load_error_annotations,
    load_gold_sets,
    metrics_from_counts,
    render_error_table,
    render_metrics_table,
    render_mode_table,
    selection_counts,
)
from .gateway import ApiCredential, HttpBackend, RecordingBackend, ReplayBackend
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
        help="run live while recording every response as a replay fixture",
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
        help="max LLM calls in flight for the whole run; at most two products are in progress",
    )
    parser.add_argument("--cache-dir", help="response cache directory; empty for none")
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
    if args.config is not None:
        try:
            payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataFormatError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataFormatError("config must be a JSON object")
    else:
        payload = {}
    if args.mode:
        payload["mode"] = args.mode
    if args.workers is not None:
        payload["workers"] = args.workers
    if args.cache_dir is not None:
        payload["cache_dir"] = args.cache_dir
    try:
        return PipelineConfig.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid config: {exc}") from exc


def _resolve_credential(args: argparse.Namespace) -> ApiCredential | None:
    try:
        if args.api_key:
            return ApiCredential(key=args.api_key)
        return ApiCredential.from_env(CREDENTIAL_ENV_VAR)
    except ValueError as exc:  # the message never quotes the key
        raise DataFormatError(f"invalid API key: {exc}") from None


def _live_backend(args: argparse.Namespace, credential: ApiCredential) -> HttpBackend:
    try:
        return HttpBackend(args.base_url, credential)
    except ValueError as exc:  # the message names at most the scheme and host
        raise DataFormatError(f"invalid base URL: {exc}") from None


def _select_products(dataset: Path, wanted: str | None) -> list[ProductRecord]:
    products = load_product_records(dataset)
    if wanted is None:
        return products
    chosen = [product for product in products if product.product_id == wanted]
    if not chosen:
        raise DataFormatError(f"product {wanted!r} not found in {dataset}")
    return chosen


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
    formats: Iterable[ReportFormat],
    backend_label: str,
) -> None:
    product_dir = out_dir / product.product_id
    product_dir.mkdir(parents=True, exist_ok=True)
    for fmt in formats:
        suffix = "json" if fmt is ReportFormat.JSON else "md"
        write_atomic(product_dir / f"report.{suffix}", render_report(result.report, fmt))
    manifest = build_run_manifest(product, config, result, backend_label=backend_label)
    write_atomic(product_dir / "manifest.json", canonical_json(manifest).encode("utf-8"))
    if config.mode is not PipelineMode.BASELINE:
        payload = {
            "product_id": product.product_id,
            "extractions": {
                review_id: [attr.to_dict() for attr in attrs]
                for review_id, attrs in sorted(result.extractions.items())
            },
        }
        write_atomic(product_dir / "extractions.json", canonical_json(payload).encode("utf-8"))


def _execute_run(args: argparse.Namespace, gateway, backend_label: str) -> int:
    config = _load_config(args)
    products = _select_products(args.dataset, args.product)
    formats = _report_formats(args.format)
    any_failures = False
    # The run opens the store at config.cache_dir once; closing the
    # generator, on success or on a crash, closes the store.
    with contextlib.closing(run_products(products, config, gateway)) as results:
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
    if args.backend == "live":
        credential = _resolve_credential(args)
        if credential is None:
            return _fatal(
                f"live backend needs an API key; set {CREDENTIAL_ENV_VAR} or pass --api-key"
            )
        live = _live_backend(args, credential)
        try:
            return _execute_run(args, live, "live")
        finally:
            live.close()
    if args.fixtures is None:
        return _fatal("replay backend needs --fixtures")
    if not Path(args.fixtures).is_dir():
        return _fatal(f"fixture directory {args.fixtures} does not exist")
    return _execute_run(args, ReplayBackend(args.fixtures), "replay")


def cmd_record_fixtures(args: argparse.Namespace) -> int:
    credential = _resolve_credential(args)
    if credential is None:
        return _fatal(
            f"recording runs live and needs an API key; set {CREDENTIAL_ENV_VAR} or pass --api-key"
        )
    live = _live_backend(args, credential)
    Path(args.fixtures).mkdir(parents=True, exist_ok=True)
    gateway = RecordingBackend(live, args.fixtures)
    try:
        code = _execute_run(args, gateway, "record")
    finally:
        live.close()
        gateway.close()  # compacts the fixture directory into one segment
    print(f"recorded {gateway.calls} fixture responses into {args.fixtures}")
    return code


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _load_run_dir(run_dir: Path) -> dict[str, dict[str, Any]]:
    """Per-product payloads from one run directory: its directory, manifest,
    report, and extractions when present."""
    if not run_dir.is_dir():
        raise DataFormatError(f"run directory {run_dir} does not exist")
    out: dict[str, dict[str, Any]] = {}
    for manifest_path in sorted(run_dir.glob("*/manifest.json")):
        product_dir = manifest_path.parent
        manifest = _read_json(manifest_path)
        if not isinstance(manifest, dict):
            raise DataFormatError(f"{manifest_path}: expected a JSON object")
        entry: dict[str, Any] = {"dir": product_dir, "manifest": manifest}
        for name in ("report", "extractions"):
            path = product_dir / f"{name}.json"
            if path.is_file():
                entry[name] = _read_json(path)
        out[product_dir.name] = entry
    if not out:
        raise DataFormatError(f"run directory {run_dir} holds no product manifests")
    return out


def _predicted_pairs(entry: dict[str, Any]) -> dict[str, set[tuple[str, str]]]:
    try:
        return {
            review_id: {(row["attribute"], row["value"]) for row in rows}
            for review_id, rows in entry["extractions"].get("extractions", {}).items()
        }
    except (AttributeError, KeyError, TypeError) as exc:
        raise DataFormatError(
            f"{entry['dir'] / 'extractions.json'}: invalid extractions: {exc!r}"
        ) from exc


def _category_metrics_rows(
    runs: dict[str, dict[str, Any]],
    gold_path: Path,
    dataset: Path | None,
) -> list[tuple[str, CategoryMetrics]]:
    gold = load_gold_sets(gold_path)
    categories: dict[str, str] = {}
    if dataset is not None:
        for product in load_product_records(dataset):
            categories[product.product_id] = product.category
    pooled: dict[str, list[int]] = {}
    for product_id, entry in runs.items():
        if "extractions" not in entry:
            continue
        category = categories.get(product_id, product_id)
        predictions = _predicted_pairs(entry)
        review_ids = set(predictions)
        review_ids.update(rid for pid, rid in gold if pid == product_id)
        for review_id in review_ids:
            gold_set = gold.get((product_id, review_id))
            gold_pairs = gold_set.gold if gold_set else frozenset()
            tp, fp, fn = selection_counts(predictions.get(review_id, set()), gold_pairs)
            bucket = pooled.setdefault(category, [0, 0, 0])
            bucket[0] += tp
            bucket[1] += fp
            bucket[2] += fn
    return [
        (category, metrics_from_counts(*pooled[category])) for category in sorted(pooled)
    ]


def _scores_table(scores_path: Path) -> str:
    try:
        payload = json.loads(scores_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read scores file: {exc}") from exc
    rows = payload.get("rows") if isinstance(payload, dict) else payload
    if not isinstance(rows, list):
        raise DataFormatError("scores file must be a JSON array or an object with 'rows'")
    table: list[tuple[str, CategoryMetrics]] = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise DataFormatError(f"rows[{index}]: expected an object")
        try:
            precision = float(row["precision"])
            recall = float(row["recall"])
            category = str(row["category"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"rows[{index}]: {exc}") from exc
        table.append(
            (category, CategoryMetrics(precision, recall, f1(precision, recall)))
        )
    return render_metrics_table(table)


def _mode_comparison(
    run_payloads: list[dict[str, dict[str, Any]]],
    criteria_path: Path,
    product_id: str | None,
) -> str:
    by_mode: dict[str, dict[str, dict[str, Any]]] = {}
    for runs in run_payloads:
        mode = next(iter(runs.values()))["manifest"].get("mode")
        by_mode[str(mode)] = runs
    missing = {"full", "baseline", "ablated"} - set(by_mode)
    if missing:
        raise DataFormatError(
            f"mode comparison needs one run dir per mode; missing {sorted(missing)}"
        )
    shared = set.intersection(*(set(runs) for runs in run_payloads))
    if product_id is None:
        if len(shared) != 1:
            raise DataFormatError(
                f"pass --product to choose among shared products {sorted(shared)}"
            )
        product_id = next(iter(shared))
    elif product_id not in shared:
        raise DataFormatError(f"product {product_id!r} is not present in every run dir")

    def report_for(mode: str) -> StructuredReport:
        entry = by_mode[mode][product_id]
        if "report" not in entry:
            raise DataFormatError(f"{mode} run for {product_id} lacks report.json")
        try:
            return StructuredReport.from_dict(entry["report"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{entry['dir'] / 'report.json'}: invalid report: {exc!r}") from exc

    annotations = [
        annotation
        for annotation in load_criterion_annotations(criteria_path)
        if annotation.product_id == product_id
    ]
    table = compare_modes(
        report_for("full"), report_for("baseline"), report_for("ablated"), annotations
    )
    return f"Mode comparison for {product_id}:\n" + render_mode_table(table)


def cmd_eval(args: argparse.Namespace) -> int:
    emitted = False
    if args.scores is not None:
        print(_scores_table(args.scores), end="")
        emitted = True
    run_payloads = [_load_run_dir(run_dir) for run_dir in args.runs]
    if args.gold is not None:
        if not run_payloads:
            return _fatal("--gold needs at least one --runs directory")
        for run_dir, runs in zip(args.runs, run_payloads):
            rows = _category_metrics_rows(runs, args.gold, args.dataset)
            if not rows:
                continue
            mode = next(iter(runs.values()))["manifest"].get("mode", "?")
            print(f"Attribute selection, {run_dir} (mode={mode}):")
            print(render_metrics_table(rows), end="")
            emitted = True
    if args.annotations is not None:
        counts = aggregate_errors(load_error_annotations(args.annotations))
        print("Error tallies:")
        print(render_error_table(counts), end="")
        emitted = True
    if args.criteria is not None:
        if len(run_payloads) < 3:
            return _fatal("--criteria needs three --runs directories (full, baseline, ablated)")
        print(_mode_comparison(run_payloads, args.criteria, args.product), end="")
        emitted = True
    if not emitted:
        return _fatal("nothing to evaluate; pass --scores, --gold, --annotations, or --criteria")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
