"""In-process workload worker for ``paper-xpath`` and ``cold-open``.

Runs in a process of its own, so peak RSS and heap state belong to the
queries alone, not to the benchmark's set-up or oracle.  Usage::

    python3 perfbench/inproc.py SPEC.json

SPEC names the store, the queries with their expected answers and the run
length; the worker writes its samples to ``SPEC["out"]``.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
from corpus import churn_document  # noqa: E402


class Caller:
    """Times library calls and checks their answers; tags them when traced."""

    def __init__(self, expected, tracing) -> None:
        self.expected = expected
        self.tracing = tracing
        self.latencies = []
        self.failed = 0
        self.in_call_cpu = 0.0

    def query(self, collection, query: str, request_id: str):
        """Run one read; record its latency and whether its answer was right."""
        token = self.tracing.set_request(request_id) if self.tracing else None
        cpu = time.thread_time()
        started = time.perf_counter()
        try:
            result = collection.query(query)
        except Exception as error:  # a failed read counts against error_rate
            print(f"read failed: {query}: {error}", file=sys.stderr)
            result = None
        finished = time.perf_counter()
        self.in_call_cpu += time.thread_time() - cpu
        if token is not None:
            self.tracing.reset_request(token)
        self.latencies.append(finished - started)
        expected = self.expected[query]
        if result is None or result.count != len(expected) or [
            (record.doc_id, record.start) for record in result.records
        ] != expected:
            self.failed += 1
        return finished


def commit_probe(collection, pairs: int, seed: int, tracing) -> dict:
    """``pairs`` add/remove commits of small documents on a quiet store."""
    latencies, failed = [], 0
    for n in range(pairs):
        for op in ("add", "remove"):
            token = tracing.set_request(f"c{n}{op}") if tracing else None
            started = time.perf_counter()
            try:
                if op == "add":
                    doc_id = collection.add_xml(churn_document(seed, n), name=f"probe-{n}.xml")
                    ok = isinstance(doc_id, int)
                else:
                    ok = collection.remove(doc_id) == doc_id
            except Exception as error:
                print(f"commit failed: {error}", file=sys.stderr)
                ok = False
            latencies.append(time.perf_counter() - started)
            if token is not None:
                tracing.reset_request(token)
            failed += not ok
    return {"latencies": latencies, "failed": failed}


def cache_counters(collection) -> dict:
    """Partition- and plan-cache counters of one collection."""
    stats = collection.stats()
    partition, plans = stats["partition_cache"], stats["plan_cache"]
    return {
        "partition_hits": partition["hits"],
        "partition_misses": partition["misses"],
        "partition_evictions": partition["evictions"],
        "partition_peak_bytes": partition["peak_cached_bytes"],
        "partition_cached_bytes": partition["cached_bytes"],
        "plan_hits": plans["hits"],
        "plan_misses": plans["misses"],
    }


def delta(before: dict, after: dict) -> dict:
    """Counter differences; byte gauges keep the later value."""
    return {
        key: after[key] - before[key] if not key.endswith("_bytes") else after[key]
        for key in after
    }


def run_paper(spec, caller, BLASCollection) -> dict:
    collection = BLASCollection.open(spec["store"])
    queries = spec["queries"]
    for _ in range(2):  # warm partitions, statistics and plans
        for query in queries:
            collection.query(query)
    before = cache_counters(collection)
    cpu = time.thread_time()
    started = time.perf_counter()
    deadline = started + spec["seconds"]
    reads = 0
    finished = started
    while finished < deadline:
        finished = caller.query(collection, queries[reads % len(queries)], f"r{reads}")
        reads += 1
    wall = finished - started
    client_cpu = time.thread_time() - cpu - caller.in_call_cpu
    return {
        "wall": wall,
        "client_cpu_ratio": client_cpu / wall,
        "caches": delta(before, cache_counters(collection)),
        "collection": collection,
    }


def run_cold(spec, caller, BLASCollection) -> dict:
    # QS1 always answers first (first_query_ms); the other 13 run in a fresh
    # seeded order each iteration, so the partition cache sees many access
    # patterns rather than one that a seed's partition sizes happen to favour.
    first, rest = spec["queries"][0], spec["queries"][1:]
    rng = random.Random(spec["seed"] * 1009 + spec["stream"])
    first_query, first_ids = [], []
    totals: dict = {}
    cpu = time.thread_time()
    started = time.perf_counter()
    deadline = started + spec["seconds"]
    now = started
    # Whole iterations only; a slow host runs past the deadline rather than
    # leave too few samples for the tail percentile.
    while now < deadline or len(caller.latencies) < spec["min_samples"]:
        opened = time.perf_counter()
        collection = BLASCollection.open(spec["store"], cache_bytes=spec["cache_bytes"])
        for index, query in enumerate([first] + rng.sample(rest, len(rest))):
            request_id = f"r{len(caller.latencies)}"
            answered = caller.query(collection, query, request_id)
            if index == 0:
                first_query.append(answered - opened)
                first_ids.append(request_id)
        counters = cache_counters(collection)
        for key, value in counters.items():
            if key.endswith("_bytes"):
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
        del collection
        gc.collect()  # drop the iteration's mappings before the next open
        now = time.perf_counter()
    wall = now - started
    client_cpu = time.thread_time() - cpu - caller.in_call_cpu
    return {
        "wall": wall,
        "client_cpu_ratio": client_cpu / wall,
        "caches": totals,
        "first_query": first_query,
        "first_ids": first_ids,
        "collection": BLASCollection.open(spec["store"], cache_bytes=spec["cache_bytes"]),
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracing = None
    recorder = None
    if spec["trace"]:
        import tracing  # noqa: F811  (only traced runs load the recorder)

        recorder = tracing.install()
    from repro.collection import BLASCollection

    expected = {
        query: [tuple(pair) for pair in answer] for query, answer in spec["expected"].items()
    }
    caller = Caller(expected, tracing)
    runner = run_paper if spec["mode"] == "paper-xpath" else run_cold
    outcome = runner(spec, caller, BLASCollection)
    collection = outcome.pop("collection")
    probe = {"latencies": [], "failed": 0}
    if spec["commit_pairs"]:
        probe = commit_probe(collection, spec["commit_pairs"], spec["seed"], tracing)
    outcome.update(
        latencies=caller.latencies,
        failed=caller.failed,
        commits=probe["latencies"],
        commit_failed=probe["failed"],
        peak_rss_mb=measure.peak_rss_mb(),
    )
    if recorder is not None:
        recorder.dump(spec["spans"])
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
