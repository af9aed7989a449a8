"""Outside-in span recorder for the traced run.

Nothing in the program is edited: :func:`install` replaces the public
functions and methods listed in :func:`install` with thin wrappers that time
each call.  A span is ``(span_id, parent_id, request_id, name, start_ns,
end_ns, attrs)``; parent and request id travel in context variables, and the
fan-out module's thread pool is swapped for one that copies the submitting
context into every job, so per-document work stays attached to the request
that caused it.  Spans stay in memory and are written out by :meth:`dump`.

Untraced runs never call :func:`install`, so the program runs unwrapped and
tracing costs it nothing.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

#: Header a traced client uses to hand its request id to the daemon.
REQUEST_HEADER = "X-Perfbench-Request"

_span: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_request: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    """In-memory span store; ``list.append`` and ``next()`` are atomic in CPython."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._span_ids = itertools.count(1)
        self._auto_requests = itertools.count(1)

    def wrap(
        self,
        fn: Callable,
        name: str,
        request_of: Optional[Callable] = None,
        skip: Optional[Callable] = None,
        attrs_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``request_of(args, kwargs)`` may supply the request id (the daemon's
        handler reads it from a header); a span outside any request starts a
        new one.  ``skip(args, kwargs)`` returning true calls ``fn``
        untimed.  ``attrs_of(args, kwargs, result)`` attaches counters.
        """
        spans = self.spans
        span_ids = self._span_ids
        auto_requests = self._auto_requests

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            request = request_of(args, kwargs) if request_of is not None else None
            request_token = None
            if request is not None:
                request_token = _request.set(request)
            else:
                request = _request.get()
                if request is None:
                    request = f"auto-{next(auto_requests)}"
                    request_token = _request.set(request)
            parent = _span.get()
            span_id = next(span_ids)
            span_token = _span.set(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                _span.reset(span_token)
                if request_token is not None:
                    _request.reset(request_token)
                attrs = attrs_of(args, kwargs, result) if attrs_of is not None else None
                spans.append((span_id, parent, request, name, start, end, attrs))

        return traced

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def set_request(request_id: str):
    """Make ``request_id`` current for the caller's context; returns a reset token."""
    return _request.set(request_id)


def reset_request(token) -> None:
    """Undo :func:`set_request`."""
    _request.reset(token)


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose jobs run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _header_request(args, kwargs) -> Optional[str]:
    return args[0].headers.get(REQUEST_HEADER)


def _catalog_hit(args, kwargs) -> bool:
    # Only partition faults become spans; resident lookups run untimed.
    store, doc_id = args[0], args[1]
    return doc_id in store._partitions


def _execution_attrs(args, kwargs, result):
    if result is None:
        return None
    stats = result.stats
    return [stats.elements_read, stats.pages_read, stats.comparisons, result.count]


def _payload_bytes(args, kwargs, result):
    payload = args[2]
    return [len(payload.encode("utf-8")) if isinstance(payload, str) else len(payload)]


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind a module-level function in every ``repro`` module that imported it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Recorder:
    """Wrap every traced entry point of the program; returns the recorder."""
    import repro.cli  # noqa: F401  (loads every module whose names get rebound)
    from repro.collection import fanout
    from repro.collection.collection import BLASCollection
    from repro.collection.result_cache import ResultCache
    from repro.collection.snapshot import CollectionSnapshot
    from repro.engine.executor import PlanExecutor
    from repro.planner import cache as plan_cache_module
    from repro.planner.planner import QueryPlanner
    from repro.server import daemon
    from repro.storage.persist import CollectionStore
    from repro.storage.table import PartitionedCatalog, StorageCatalog
    from repro.xpath import parser

    recorder = Recorder()
    fanout.ThreadPoolExecutor = _ContextPool

    for original, name in (
        (fanout.run_jobs, "fanout.run_jobs"),
        (fanout.run_morsel_warmup, "fanout.morsel"),
        (fanout.merge_document_streams, "fanout.merge"),
        (parser.parse_xpath, "xpath.parse"),
        (plan_cache_module.canonical_query_text, "xpath.canonical"),
    ):
        _replace_everywhere(original, recorder.wrap(original, name))

    open_function = BLASCollection.__dict__["open"].__func__
    BLASCollection.open = classmethod(recorder.wrap(open_function, "storage.open"))

    methods = (
        (BLASCollection, "query", "collection.query", {}),
        (BLASCollection, "snapshot", "snapshot.admit", {}),
        (BLASCollection, "add_xml", "ingest.add_xml", {}),
        (BLASCollection, "remove", "collection.remove", {}),
        (CollectionSnapshot, "query", "snapshot.query", {}),
        (CollectionSnapshot, "close", "snapshot.close", {}),
        (StorageCatalog, "statistics", "storage.stats", {}),
        (PartitionedCatalog, "statistics_for", "storage.stats_for", {}),
        (PartitionedCatalog, "catalog_for", "storage.fault", {"skip": _catalog_hit}),
        (QueryPlanner, "plan", "planner.plan", {}),
        (PlanExecutor, "execute_physical", "engine.execute", {"attrs_of": _execution_attrs}),
        (CollectionStore, "write_partition", "persist.write_partition", {}),
        (CollectionStore, "write_manifest", "persist.write_manifest", {}),
        (CollectionStore, "_write_atomic", "persist.write_atomic", {"attrs_of": _payload_bytes}),
        (ResultCache, "get", "result_cache.get", {}),
        (ResultCache, "put", "result_cache.put", {}),
        (daemon.DaemonServer, "handle_query", "server.handle_query", {}),
        (daemon.DaemonServer, "handle_add", "server.commit", {}),
        (daemon.DaemonServer, "handle_remove", "server.commit", {}),
        (daemon._DaemonHandler, "do_GET", "server.request", {"request_of": _header_request}),
        (daemon._DaemonHandler, "do_POST", "server.request", {"request_of": _header_request}),
    )
    for owner, attr, name, options in methods:
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, **options))
    return recorder
