"""In-memory span tracing around reviewlens's public functions.

Each target is wrapped where callers look it up: modules import names with
``from ... import``, so the wrapper replaces every ``reviewlens`` module
attribute that holds the original function, not only the defining one.
Methods are wrapped on their class. ``uninstall`` puts the originals back.

A span records name, start, end, parent span, product, wall and thread-CPU
time, and its self time (duration minus the time of child spans on the same
thread). Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter

# (module, qualified name) of every span target.
SPAN_TARGETS = (
    ("reviewlens.gateway", "complete_parsed"),
    ("reviewlens.gateway", "lookup_or_call"),
    ("reviewlens.gateway", "complete_with_retry"),
    ("reviewlens.gateway", "fingerprint"),
    ("reviewlens.gateway", "HttpBackend.complete"),
    ("reviewlens.cache", "DiskResponseCache.get"),
    ("reviewlens.cache", "DiskResponseCache.put"),
    ("reviewlens.prompt_library", "render_prompt"),
    ("reviewlens.extraction", "build_extraction_prompt"),
    ("reviewlens.comparison", "build_comparison_prompt"),
    ("reviewlens.grouping", "build_grouping_prompt"),
    ("reviewlens.pipeline", "build_baseline_prompt"),
    ("reviewlens.pipeline", "build_ablated_prompt"),
    ("reviewlens.extraction", "parse_extraction_response"),
    ("reviewlens.comparison", "parse_comparison_response"),
    ("reviewlens.grouping", "parse_grouping_response"),
    ("reviewlens.structuring", "parse_report_sections"),
    ("reviewlens.structuring", "merge_insights"),
    ("reviewlens.structuring", "build_report"),
    ("reviewlens.structuring", "render_report"),
    ("reviewlens.pipeline", "run_product"),
)
# Called too often for a span to be cheap; only counted.
COUNT_TARGETS = (("reviewlens.domain", "normalize_key"),)


def _note(name: str, result) -> float | None:
    """A number worth keeping from a call's result: prompt characters for a
    built request, attributes for an extraction parse, hit for a cache read."""
    if name.endswith("_prompt") and name.startswith("build_"):
        return len(result.system_prompt) + len(result.user_prompt)
    if name == "parse_extraction_response":
        return len(result)
    if name == "DiskResponseCache.get":
        return 0 if result is None else 1
    if name == "complete_parsed":
        return 1  # parsed successfully; a call that raised keeps no note
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, qualname in SPAN_TARGETS:
            self._patch(module_name, qualname, self._span_wrapper)
        for module_name, qualname in COUNT_TARGETS:
            self._patch(module_name, qualname, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module_name: str, qualname: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, make(qualname, original))
            return
        original = getattr(module, qualname)
        wrapper = make(qualname, original)
        for name, loaded in list(sys.modules.items()):
            if name != "reviewlens" and not name.startswith("reviewlens."):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock, thread_cpu = time.monotonic, time.thread_time
        is_product = name == "run_product"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.product = None
            parent = stack[-1][0] if stack else None
            if is_product:
                outer_product = local.product
                local.product = args[0].product_id
            frame = [next(ids), 0.0, 0.0]  # id, child wall, child cpu
            stack.append(frame)
            start, cpu_start = clock(), thread_cpu()
            note = None
            try:
                result = fn(*args, **kwargs)
                note = _note(name, result)
                return result
            finally:
                cpu = thread_cpu() - cpu_start
                end = clock()
                stack.pop()
                wall = end - start
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                spans.append(
                    (name, frame[0], parent, local.product, start, end, wall, cpu,
                     wall - frame[1], cpu - frame[2], threading.get_ident(), note)
                )
                if is_product:
                    local.product = outer_product

        return traced

    # -- output -----------------------------------------------------------------

    FIELDS = ("name", "id", "parent", "product", "start", "end", "wall", "cpu",
              "self_wall", "self_cpu", "thread", "note")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(self.FIELDS, span))) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
