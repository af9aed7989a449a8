"""Per-layer metrics from a traced run's spans, client samples and counters.

A span's self time is its duration minus the part of its interval covered by
its children (children running in parallel pool threads are merged into
one covered interval first).  Read-scoped figures are averaged over the
client's reads of the traced phase; spans outside any client request (the
daemon's own start-up, warm-up reads) count only toward ``storage.open_ms``
and the commit-path metrics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from measure import percentile

LAYERS = (
    "server", "result_cache", "snapshot", "fanout", "planner", "storage",
    "persist", "engine", "xpath", "ingest",
)

# Span tuple fields.
ID, PARENT, REQUEST, NAME, START, END, ATTRS = range(7)


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``""`` when it belongs to none)."""
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS else ""


def self_times(spans: Sequence[list]) -> Dict[int, int]:
    """Span id -> self time in nanoseconds."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered, reach = 0, start
        for child_start, child_end in sorted(children.get(span[ID], ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[span[ID]] = (end - start) - covered
    return result


def _ms(nanoseconds: float) -> float:
    return nanoseconds / 1e6


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_breakdown(spans: Sequence[list], own: Dict[int, int],
                    reads: Dict[str, Tuple[float, int]],
                    key: Callable[[str], str] = layer_of) -> Dict[str, float]:
    """Self ms per read by layer over ``reads``, plus what no layer owns.

    ``key`` maps a span name to its bucket (pass ``str`` for one bucket per
    span name).  Client time outside a read's root span is charged to
    ``server`` (the transport) when the root is a daemon span, else to
    ``unattributed``.  Self times of jobs that ran in parallel add up, so
    the buckets can sum to more than the reads' wall time.
    """
    n_reads = max(len(reads), 1)
    breakdown: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span[REQUEST] not in reads:
            continue
        breakdown[key(span[NAME]) or "unattributed"] += _ms(own[span[ID]]) / n_reads
        if span[PARENT] is None:
            outside = reads[span[REQUEST]][0] * 1000.0 - _ms(span[END] - span[START])
            breakdown["server" if span[NAME].startswith("server.") else "unattributed"] += (
                outside / n_reads)
    return dict(breakdown)


def analyze(spans: Sequence[list], reads: Dict[str, Tuple[float, int]],
            commits: Sequence[str], counters: Dict[str, float],
            harness: Dict[str, float]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Return (per-layer metrics, self ms per read by layer).

    ``reads`` maps the traced phase's read request ids to (client latency
    in seconds, response bytes); ``commits`` lists its commit request ids;
    ``counters`` holds cache and server counter deltas; ``harness`` the
    generator's own figures and the untraced/traced latency medians.
    """
    own = self_times(spans)
    n_reads = max(len(reads), 1)
    commit_ids = set(commits)
    read_spans = [span for span in spans if span[REQUEST] in reads]
    by_name: Dict[str, List[list]] = defaultdict(list)
    for span in read_spans:
        by_name[span[NAME]].append(span)
    all_by_name: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        all_by_name[span[NAME]].append(span)

    def duration(span) -> int:
        return span[END] - span[START]

    def per_read(names: Sequence[str], self_time: bool) -> float:
        total = sum(
            own[span[ID]] if self_time else duration(span)
            for name in names for span in by_name.get(name, ())
        )
        return _ms(total) / n_reads

    def durations_ms(spans_of: Iterable[list]) -> List[float]:
        return [_ms(duration(span)) for span in spans_of]

    def quantile(values: List[float], fraction: float) -> float:
        return percentile(values, fraction) if values else 0.0

    handle = {span[REQUEST]: span for span in by_name.get("server.handle_query", ())}
    transport = [
        reads[request][0] * 1000.0 - _ms(duration(span)) for request, span in handle.items()
    ]
    handle_ms = durations_ms(handle.values())
    admits = durations_ms(by_name.get("snapshot.admit", ()))
    executions = by_name.get("engine.execute", ())
    elements = sum(span[ATTRS][0] for span in executions if span[ATTRS])
    results = sum(span[ATTRS][3] for span in executions if span[ATTRS])
    written = sum(
        span[ATTRS][0] for span in all_by_name.get("persist.write_atomic", ())
        if span[REQUEST] in commit_ids
    )

    metrics = {
        "server.transport_ms": quantile(transport, 0.5),
        "server.handle_query_p50_ms": quantile(handle_ms, 0.5),
        "server.handle_query_p99_ms": quantile(handle_ms, 0.99),
        "server.encode_ms": per_read(["server.handle_query"], True),
        "server.response_bytes": _mean(size for _, size in reads.values()) if handle else 0.0,
        "server.executions_per_request": counters.get("executions_per_request", 0.0),
        "server.coalesced_followers": counters.get("coalesced_followers", 0.0),
        "server.commit_ms": quantile(durations_ms(all_by_name.get("server.commit", ())), 0.5),
        "result_cache.hit_ratio": _ratio(
            counters.get("result_hits", 0), counters.get("result_hits", 0)
            + counters.get("result_misses", 0)),
        "result_cache.get_ms": _mean(durations_ms(by_name.get("result_cache.get", ()))),
        "result_cache.put_ms": _mean(durations_ms(by_name.get("result_cache.put", ()))),
        "result_cache.evictions": counters.get("result_evictions", 0.0),
        "result_cache.version_evictions": counters.get("result_version_evictions", 0.0),
        "result_cache.stale_served": counters.get("stale_served", 0.0),
        "snapshot.admit_p50_ms": quantile(admits, 0.5),
        "snapshot.admit_p99_ms": quantile(admits, 0.99),
        "snapshot.query_ms": per_read(["snapshot.query"], False),
        "fanout.morsel_ms": per_read(["fanout.morsel"], False),
        "fanout.morsel_calls": float(len(by_name.get("fanout.morsel", ()))),
        "fanout.run_jobs_ms": per_read(["fanout.run_jobs"], True),
        "fanout.merge_ms": per_read(["fanout.merge"], False),
        "planner.plan_ms": per_read(["planner.plan"], True),
        "planner.plans": float(len(by_name.get("planner.plan", ()))),
        "plan_cache.hit_ratio": _ratio(
            counters.get("plan_hits", 0),
            counters.get("plan_hits", 0) + counters.get("plan_misses", 0)),
        "storage.open_ms": _mean(durations_ms(all_by_name.get("storage.open", ()))),
        "storage.stats_build_ms": per_read(["storage.stats", "storage.stats_for"], True),
        "storage.fault_ms": per_read(["storage.fault"], False),
        "partition_cache.hit_ratio": _ratio(
            counters.get("partition_hits", 0),
            counters.get("partition_hits", 0) + counters.get("partition_misses", 0)),
        "partition_cache.evictions": counters.get("partition_evictions", 0.0),
        "partition_cache.peak_cached_bytes": counters.get("partition_peak_bytes", 0.0),
        "persist.write_partition_ms": _mean(
            durations_ms(all_by_name.get("persist.write_partition", ()))),
        "persist.write_manifest_ms": _mean(
            durations_ms(all_by_name.get("persist.write_manifest", ()))),
        "persist.bytes_written_per_commit": _ratio(written, len(commit_ids)),
        "engine.execute_ms": _mean(_ms(own[span[ID]]) for span in executions),
        "engine.elements_read": elements / n_reads,
        "engine.pages_read": sum(s[ATTRS][1] for s in executions if s[ATTRS]) / n_reads,
        "engine.comparisons": sum(s[ATTRS][2] for s in executions if s[ATTRS]) / n_reads,
        "engine.elements_per_result": _ratio(elements, results),
        "xpath.parse_ms": per_read(["xpath.parse", "xpath.canonical"], True),
        "ingest.index_ms": _mean(
            _ms(own[span[ID]]) for span in all_by_name.get("ingest.add_xml", ())),
    }

    breakdown = layer_breakdown(read_spans, own, reads)
    metrics["trace.unattributed_ms"] = breakdown.get("unattributed", 0.0)
    metrics["trace.overhead_ratio"] = _ratio(
        harness["traced_p50_ms"], harness["untraced_p50_ms"])
    metrics["harness.late_ms"] = harness["late_ms"]
    metrics["harness.client_cpu_ratio"] = harness["client_cpu_ratio"]
    metrics["harness.error_rate"] = harness["error_rate"]
    return metrics, breakdown


#: Unit of every per-layer metric, in report order.
UNITS = {
    "server.transport_ms": "ms", "server.handle_query_p50_ms": "ms",
    "server.handle_query_p99_ms": "ms", "server.encode_ms": "ms",
    "server.response_bytes": "bytes", "server.executions_per_request": "ratio",
    "server.coalesced_followers": "count", "server.commit_ms": "ms",
    "result_cache.hit_ratio": "ratio", "result_cache.get_ms": "ms",
    "result_cache.put_ms": "ms", "result_cache.evictions": "count",
    "result_cache.version_evictions": "count", "result_cache.stale_served": "count",
    "snapshot.admit_p50_ms": "ms", "snapshot.admit_p99_ms": "ms", "snapshot.query_ms": "ms",
    "fanout.morsel_ms": "ms", "fanout.morsel_calls": "count", "fanout.run_jobs_ms": "ms",
    "fanout.merge_ms": "ms", "planner.plan_ms": "ms", "planner.plans": "count",
    "plan_cache.hit_ratio": "ratio", "storage.open_ms": "ms", "storage.stats_build_ms": "ms",
    "storage.fault_ms": "ms", "partition_cache.hit_ratio": "ratio",
    "partition_cache.evictions": "count", "partition_cache.peak_cached_bytes": "bytes",
    "persist.write_partition_ms": "ms", "persist.write_manifest_ms": "ms",
    "persist.bytes_written_per_commit": "bytes", "engine.execute_ms": "ms",
    "engine.elements_read": "count", "engine.pages_read": "count",
    "engine.comparisons": "count", "engine.elements_per_result": "ratio",
    "xpath.parse_ms": "ms", "ingest.index_ms": "ms", "harness.late_ms": "ms",
    "harness.client_cpu_ratio": "ratio", "harness.error_rate": "ratio",
    "trace.overhead_ratio": "ratio", "trace.unattributed_ms": "ms",
}
