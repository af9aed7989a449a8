"""Layered benchmark of the BLAS engine and its HTTP daemon.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-xpath --seed 1 --seconds 10 --trace 0

Workloads: ``paper-xpath`` and ``cold-open`` call the library in-process;
``serve-zipf`` and ``serve-churn`` drive a ``repro serve`` subprocess over
HTTP/1.1 persistent connections.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is a separate run with the same seed that times the
program's layers from outside (see ``tracing.py``) and reports per-layer
metrics.  Every answer is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give sample counts and the run context.
A run whose load generator fell behind or saturated its CPU is invalid:
it prints the reason and exits 3 without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from measure import median, percentile  # noqa: E402

WORKLOADS = ("paper-xpath", "cold-open", "serve-zipf", "serve-churn")
#: Set-ups per end-to-end run; ``setup_s`` reports their median.  One
#: set-up's time swings up to 2x with the host's load, in phases of 5-15 s,
#: so the set-ups are spread over the run: some before the load, the rest
#: after each in-process worker or after the served load.
SETUP_REPEATS = 5
#: Worker processes an in-process measurement is split over; their samples
#: are pooled, so one process's thread placement does not set the result.
INPROC_WORKERS = 3
#: Set-ups of a served run timed after its load, once its daemon is stopped.
SERVED_LATE_SETUPS = 2
#: Add/remove pairs of the commit probe that follows the reads of a traced
#: run (``serve-churn`` commits through its writer instead), so the
#: ``persist`` and ``ingest`` layers are measured on every workload.  On
#: ``serve-zipf`` a read follows each commit; the two connections' reads
#: land on about 40 versions, beyond the result cache's 32-version window,
#: so ``version_evictions`` is exercised too.
COMMIT_PROBE_PAIRS = 40
ZIPF_EXPONENT = 1.0
#: ``serve-churn``: Poisson read rate and the writer's commit interval.
CHURN_READS_PER_SECOND = 10.0
CHURN_COMMIT_INTERVAL = 0.11
#: ``cold-open``: partition-cache budget as a share of the decoded corpus.
#: 5% is below any one partition (each is 14-20% of the corpus), so every
#: partition access faults whatever the seed.  Budgets that held two or
#: three partitions (40%, 50%) made the fault count per query, and so the
#: cold p50, depend on the seed's document sizes by up to a half.
COLD_CACHE_SHARE = 0.05
#: The tail percentile every workload reports, and the samples a run needs
#: to leave ten beyond it.  With the 14 paper queries in equal shares, p95
#: falls inside the costliest query's share; p90 fell on the boundary
#: between the two costliest, whose order flips with the seed.
TAIL_PERCENT = 95
MIN_SAMPLES = 10 * 100 // (100 - TAIL_PERCENT)
#: Validity limits of the load generator.
MAX_LATE_MS = 25.0
MAX_CLIENT_CPU_RATIO = 0.85


class InvalidRun(Exception):
    """The load generator, not the program, limited this run."""


@dataclass
class Setup:
    """What the timed set-ups produced; the last store (and daemon) stay up."""

    corpus: object
    store: Path
    setup_s: List[float]
    daemon: Optional[object]


@dataclass
class Report:
    """A workload's result line plus the notes printed before it."""

    metrics: Dict[str, tuple]
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)


class Bench:
    """One benchmark run: a workload, a seed, a length and a mode."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.stores = 0
        self.notes: List[str] = []

    # -- set-up ----------------------------------------------------------------

    def set_up(self, repeats: int, serve: bool) -> Setup:
        """Time ``repeats`` set-ups in a row; the last one's store (and daemon) stays up."""
        setup = self.time_setup(serve)
        for _ in range(repeats - 1):
            self.tear_down(setup)
            again = self.time_setup(serve)
            again.setup_s = setup.setup_s + again.setup_s
            setup = again
        self.notes.append(
            f"corpus: {len(setup.corpus.texts)} documents, {setup.corpus.xml_bytes} XML bytes, "
            f"store {measure.tree_bytes(setup.store)} bytes on disk")
        return setup

    def time_setup(self, serve: bool) -> Setup:
        """Seed -> XML -> indexed -> saved -> opened (daemon ready), timed once."""
        from corpus import Corpus
        from http_load import Client, Daemon
        from repro.collection import BLASCollection

        self.stores += 1
        store = self.work / f"store-{self.stores}"
        gc.collect()  # the previous set-up's garbage is not this one's cost
        started = time.perf_counter()
        corpus = Corpus(self.seed)
        collection = BLASCollection()
        for name, text in zip(corpus.names, corpus.texts):
            collection.add_xml(text, name=name)
        collection.save(str(store))
        del collection
        daemon = None
        if serve:
            daemon = Daemon(ROOT, store)
            try:
                client = Client(daemon.address)
                client.json("GET", "/healthz")
                client.close()
            except BaseException:
                daemon.stop()
                raise
        else:
            BLASCollection.open(str(store))
        return Setup(corpus, store, [time.perf_counter() - started], daemon)

    def more_setups(self, setup: Setup, count: int, serve: bool) -> None:
        """Time ``count`` more set-ups later in the run, each torn down at once."""
        for _ in range(count):
            extra = self.time_setup(serve)
            self.tear_down(extra)
            setup.setup_s.extend(extra.setup_s)

    @staticmethod
    def tear_down(setup: Setup) -> None:
        if setup.daemon is not None:
            setup.daemon.stop()
            setup.daemon = None
        shutil.rmtree(setup.store, ignore_errors=True)

    @staticmethod
    def common_metrics(setup: Setup) -> Dict[str, tuple]:
        return {
            "setup_s": (median(setup.setup_s), "s"),
            "store_bytes_per_xml_byte": (
                measure.tree_bytes(setup.store) / setup.corpus.xml_bytes, "ratio"),
        }

    # -- in-process workloads ----------------------------------------------------

    def worker(self, setup: Setup, expected, seconds: float, traced: bool,
               commit_pairs: int, cache_bytes: Optional[int], tag: str,
               stream: int = 0) -> dict:
        """Run ``inproc.py`` once and return its outcome (and spans when traced)."""
        from corpus import paper_queries

        out, spans = self.work / f"{tag}.json", self.work / f"{tag}-spans.json"
        spec = {
            "mode": self.workload, "store": str(setup.store), "seconds": seconds,
            "queries": [text for _, text in paper_queries()], "expected": expected,
            "cache_bytes": cache_bytes, "trace": traced, "spans": str(spans),
            "commit_pairs": commit_pairs, "seed": self.seed, "out": str(out),
            "stream": stream, "min_samples": -(-MIN_SAMPLES // INPROC_WORKERS),
        }
        spec_path = self.work / f"{tag}-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        completed = subprocess.run(
            [sys.executable, str(HERE / "inproc.py"), str(spec_path)],
            cwd=ROOT, env=measure.child_env(ROOT), timeout=150, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"in-process worker exited {completed.returncode}")
        outcome = json.loads(out.read_text(encoding="utf-8"))
        if traced:
            outcome["spans"] = json.loads(spans.read_text(encoding="utf-8"))["spans"]
        return outcome

    def run_inproc(self) -> Report:
        from answers import concatenate, oracle_starts
        from corpus import paper_queries

        setup = self.set_up(1 if self.trace else SETUP_REPEATS - INPROC_WORKERS, serve=False)
        corpus = setup.corpus
        queries = [text for _, text in paper_queries()]
        doc_ids = list(range(len(corpus.texts)))
        expected = {
            query: concatenate(per_document, doc_ids)
            for query, per_document in oracle_starts(corpus.texts, queries).items()
        }
        cache_bytes = None
        if self.workload == "cold-open":
            decoded = self.decoded_bytes(setup, queries)
            cache_bytes = int(decoded * COLD_CACHE_SHARE)
            self.notes.append(
                f"partition cache budget {cache_bytes} bytes vs {decoded} decoded bytes "
                f"(corpus exceeds the cache)")
        if self.trace:
            plain = self.worker(setup, expected, self.seconds / 2, False, 0, cache_bytes, "plain")
            traced = self.worker(setup, expected, self.seconds / 2, True,
                                 COMMIT_PROBE_PAIRS, cache_bytes, "traced")
            return self.inproc_layers(plain, traced)
        outcomes = []
        for index in range(INPROC_WORKERS):
            outcomes.append(self.worker(setup, expected, self.seconds / INPROC_WORKERS, False,
                                        0, cache_bytes, f"run-{index}", index))
            self.more_setups(setup, 1, serve=False)
        pooled = {key: [value for outcome in outcomes for value in outcome.get(key, [])]
                  for key in ("latencies", "first_query")}
        latencies = [value * 1000.0 for value in pooled["latencies"]]
        first = pooled["first_query"]
        metrics = self.common_metrics(setup)
        metrics.update(self.latency_metrics(latencies, "cold query" if first else "read"))
        # Reads over the loops' wall time; on ``cold-open`` that includes each
        # iteration's ``open()`` and the collection between iterations.
        metrics["throughput_qps"] = (
            len(latencies) / sum(outcome["wall"] for outcome in outcomes), "1/s")
        metrics["peak_rss_mb"] = (max(outcome["peak_rss_mb"] for outcome in outcomes), "MiB")
        if first:
            self.notes.append(
                f"first_query_ms = {median(first) * 1000.0:.6g} ms "
                f"(median over {len(first)} cold opens; not gated)")
        failed = sum(outcome["failed"] + outcome["commit_failed"] for outcome in outcomes)
        return Report(metrics, len(latencies), failed)

    def decoded_bytes(self, setup: Setup, queries: List[str]) -> int:
        """Resident bytes of the whole corpus once every partition is decoded."""
        from repro.collection import BLASCollection

        collection = BLASCollection.open(str(setup.store))
        for query in queries:
            collection.query(query)
        return collection.stats()["partition_cache"]["cached_bytes"]

    def inproc_layers(self, plain: dict, traced: dict) -> Report:
        import layers

        reads = {f"r{n}": (latency, 0) for n, latency in enumerate(traced["latencies"])}
        commits = [f"c{n}{op}" for n in range(COMMIT_PROBE_PAIRS) for op in ("add", "remove")]
        caches = traced["caches"]
        counters = {key: float(value) for key, value in caches.items()}
        attempted = len(traced["latencies"]) + len(traced["commits"])
        failed = traced["failed"] + traced["commit_failed"]
        harness = {
            "untraced_p50_ms": median(plain["latencies"]) * 1000.0,
            "traced_p50_ms": median(traced["latencies"]) * 1000.0,
            "late_ms": 0.0,
            "client_cpu_ratio": traced["client_cpu_ratio"],
            "error_rate": failed / attempted,
        }
        metrics, breakdown = layers.analyze(traced["spans"], reads, commits, counters, harness)
        self.note_breakdown(breakdown)
        if traced.get("first_ids"):
            firsts = {request: reads[request] for request in traced["first_ids"]}
            own = layers.self_times(traced["spans"])
            self.notes.append(f"traced first_query_ms = {median(traced['first_query']) * 1000.0:.6g}"
                              f" ms (median over {len(firsts)} cold opens)")
            self.note_breakdown(layers.layer_breakdown(traced["spans"], own, firsts, str),
                                "first query")
        failed += plain["failed"]
        return Report({name: (value, layers.UNITS[name]) for name, value in metrics.items()},
                      attempted + len(plain["latencies"]), failed)

    # -- served workloads ----------------------------------------------------------

    def run_served(self) -> Report:
        from corpus import churn_document, zipf_key_space, zipf_sequence

        setup = self.set_up(1 if self.trace else SETUP_REPEATS - SERVED_LATE_SETUPS, serve=True)
        corpus = setup.corpus
        keys = zipf_key_space(corpus, self.seed)
        sequence = zipf_sequence(keys, 200_000, self.seed, ZIPF_EXPONENT)
        churn = {n: churn_document(self.seed, n) for n in range(1000)}
        self.notes.append(f"zipf key space: {len(keys)} queries, exponent {ZIPF_EXPONENT}")
        try:
            if self.trace:
                return self.served_layers(setup, sequence, churn)
            phase = self.serve_phase(setup.daemon, sequence, churn, self.seconds, False)
        finally:
            if setup.daemon is not None:
                setup.daemon.stop()
        failed, attempted = self.verify_served(setup, phase)
        rss = measure.peak_rss_mb(resource.RUSAGE_CHILDREN)
        self.more_setups(setup, SERVED_LATE_SETUPS, serve=True)
        metrics = self.common_metrics(setup)
        reads = [read.latency * 1000.0 for read in phase["load"].reads]
        metrics.update(self.latency_metrics(reads, "read"))
        if phase["load"].commits:
            metrics.update(self.commit_metrics(
                [commit.latency * 1000.0 for commit in phase["load"].commits]))
        metrics["throughput_qps"] = (len(reads) / phase["load"].wall, "1/s")
        metrics["peak_rss_mb"] = (rss, "MiB")
        self.check_generator(phase["load"])
        return Report(metrics, attempted, failed)

    def serve_phase(self, daemon, sequence, churn, seconds: float, traced: bool) -> dict:
        """Warm the daemon, drive the workload's load, then probe commits."""
        from corpus import paper_queries
        from http_load import Client, closed_loop, commit_probe, open_loop, query_path

        client = Client(daemon.address)
        for _, query in paper_queries():  # warm plans and partitions, not the result cache
            client.json("GET", query_path(query, no_result_cache=True))
        before = client.json("GET", "/stats")
        if self.workload == "serve-zipf":
            load = closed_loop(daemon.address, sequence, seconds, traced)
        else:
            reads, writes = self.churn_schedule(sequence, seconds)
            load = open_loop(daemon.address, reads, writes, churn, traced)
        loaded = client.json("GET", "/stats")
        probe = None
        if self.workload == "serve-zipf" and traced:
            probe = commit_probe(daemon.address, COMMIT_PROBE_PAIRS, churn,
                                 [text for _, text in paper_queries()], traced)
        after = client.json("GET", "/stats") if probe else loaded
        client.close()
        return {"load": load, "probe": probe, "before": before, "loaded": loaded, "after": after}

    def churn_schedule(self, sequence, seconds: float):
        """Seeded Poisson reads plus add/remove pairs on a fixed schedule.

        The reads are a Poisson process conditioned on its count: that many
        arrival times drawn uniformly over the run, so every seed sends the
        same number of reads at the same mean rate.
        """
        rng = random.Random(self.seed ^ 0xC4A2)
        count = int(CHURN_READS_PER_SECOND * seconds)
        arrivals = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        reads = list(zip(arrivals, sequence))
        writes = []
        pairs = int((seconds - CHURN_COMMIT_INTERVAL / 2) / (2 * CHURN_COMMIT_INTERVAL))
        for index in range(pairs):
            due = CHURN_COMMIT_INTERVAL / 2 + 2 * index * CHURN_COMMIT_INTERVAL
            writes.append((due, "add", index))
            writes.append((due + CHURN_COMMIT_INTERVAL, "remove", index))
        return reads, writes

    def verify_served(self, setup: Setup, phase: dict):
        """(failed, attempted) over every read and commit of the phase."""
        from answers import LibraryReference

        load, probe = phase["load"], phase["probe"]
        reference = LibraryReference(str(setup.store))
        failed = sum(commit.status != 200 for commit in load.commits)
        attempted = len(load.reads) + len(load.commits)
        stale = phase["after"]["collection"]["result_cache"]["stale_served"]
        if stale:
            self.notes.append(f"result cache served {stale} stale answers")
            failed += stale
        if self.workload == "serve-zipf":
            failed += self.check_reads(reference, load.reads)
        else:
            failed += self.check_reads(reference, load.reads, load.commits,
                                       phase["before"]["version"])
        if probe is not None:
            failed += sum(commit.status != 200 for commit in probe.commits)
            failed += self.check_reads(reference, probe.reads, probe.commits,
                                       phase["loaded"]["version"])
            attempted += len(probe.reads) + len(probe.commits)
        return failed, attempted

    def check_reads(self, reference, reads, commits=None, base_version: int = 0) -> int:
        """Wrong or failed reads among ``reads``.

        Without ``commits`` every read must equal the library answer, full
        records included.  With them, a read must equal the library answer
        plus the evaluator's answer for each churn document present at the
        ``version`` it reports.
        """
        from answers import oracle_starts, record_rows
        from corpus import churn_document

        present = self.churn_membership(commits, base_version) if commits is not None else None
        churn_answers: Dict[tuple, list] = {}
        verified = set()
        failed = 0
        for read in reads:
            if read.status != 200:
                failed += 1
                continue
            if (read.query, read.body) in verified:
                continue
            payload = json.loads(read.body)
            count, rows = reference.answer(read.query)
            if present is None:
                ok = payload["count"] == count and record_rows(payload["records"]) == rows
            else:
                expected = [(row[0], row[2]) for row in rows]
                members = present.get(payload["version"])
                if members is None:
                    ok = False
                else:
                    for doc_id, churn_index in members:
                        key = (churn_index, read.query)
                        if key not in churn_answers:
                            text = churn_document(self.seed, churn_index)
                            churn_answers[key] = oracle_starts([text], [read.query])[read.query][0]
                        expected += [(doc_id, start) for start in churn_answers[key]]
                    ok = payload["count"] == len(expected) and [
                        (r["doc_id"], r["start"]) for r in payload["records"]] == expected
            if ok:
                verified.add((read.query, read.body))
            else:
                failed += 1
        return failed

    @staticmethod
    def churn_membership(commits, base_version: int) -> Dict[int, list]:
        """Version -> churn documents ``(doc_id, churn_index)`` present at it."""
        changes = []
        for commit in commits:
            if commit.status == 200:
                payload = json.loads(commit.body)
                changes.append((payload["version"], commit.op, commit.churn_index,
                                payload.get("doc_id", payload.get("removed"))))
        changes.sort()
        present: Dict[int, list] = {base_version: []}
        members: Dict[int, int] = {}
        for version, op, churn_index, doc_id in changes:
            if op == "add":
                members[churn_index] = doc_id
            else:
                members.pop(churn_index, None)
            present[version] = sorted((doc, index) for index, doc in members.items())
        return present

    def served_layers(self, setup: Setup, sequence, churn) -> Report:
        import layers
        from http_load import Daemon

        half = self.seconds / 2
        plain = self.serve_phase(setup.daemon, sequence, churn, half, False)
        setup.daemon.stop()
        spans_path = self.work / "daemon-spans.json"
        setup.daemon = Daemon(ROOT, setup.store, spans=spans_path)
        traced = self.serve_phase(setup.daemon, sequence, churn, half, True)
        setup.daemon.stop()
        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        failed, attempted = self.verify_served(setup, traced)
        load = traced["load"]
        before = traced["before"]

        def grew(*path, until="loaded"):
            old, new = before, traced[until]
            for key in path:
                old, new = old[key], new[key]
            return float(new - old)

        queries = grew("server", "requests", "query")
        counters = {
            "executions_per_request": grew("server", "query_executions") / max(queries, 1.0),
            "coalesced_followers": grew("server", "coalesced_followers"),
            "result_hits": grew("collection", "result_cache", "hits"),
            "result_misses": grew("collection", "result_cache", "misses"),
            # Evictions and staleness also count the commit probe's reads.
            "result_evictions": grew("collection", "result_cache", "evictions", until="after"),
            "result_version_evictions": grew(
                "collection", "result_cache", "version_evictions", until="after"),
            "stale_served": float(traced["after"]["collection"]["result_cache"]["stale_served"]),
            "plan_hits": grew("collection", "plan_cache", "hits"),
            "plan_misses": grew("collection", "plan_cache", "misses"),
            "partition_hits": grew("collection", "partition_cache", "hits"),
            "partition_misses": grew("collection", "partition_cache", "misses"),
            "partition_evictions": grew("collection", "partition_cache", "evictions"),
            "partition_peak_bytes": float(
                traced["loaded"]["collection"]["partition_cache"]["peak_cached_bytes"]),
        }
        reads = {read.request_id: (read.latency, len(read.body)) for read in load.reads}
        probe = traced["probe"].commits if traced["probe"] else []
        commits = [commit.request_id for commit in load.commits + probe]
        harness = {
            "untraced_p50_ms": median([read.latency for read in plain["load"].reads]) * 1000.0,
            "traced_p50_ms": median([read.latency for read in load.reads]) * 1000.0,
            "late_ms": self.late_ms(load),
            "client_cpu_ratio": load.client_cpu_ratio,
            "error_rate": failed / attempted,
        }
        metrics, breakdown = layers.analyze(spans, reads, commits, counters, harness)
        self.note_breakdown(breakdown)
        self.check_generator(load)
        plain_failed, plain_attempted = self.verify_served(setup, plain)
        return Report({name: (value, layers.UNITS[name]) for name, value in metrics.items()},
                      attempted + plain_attempted, failed + plain_failed)

    # -- shared pieces ----------------------------------------------------------------

    def latency_metrics(self, latencies_ms: List[float], what: str) -> Dict[str, tuple]:
        self.notes.append(f"latency: {len(latencies_ms)} {what} samples")
        if not measure.tail_supported(len(latencies_ms), TAIL_PERCENT):
            raise InvalidRun(f"only {len(latencies_ms)} {what} samples; "
                             f"p{TAIL_PERCENT} needs {MIN_SAMPLES}")
        return {
            "latency_p50_ms": (percentile(latencies_ms, 0.50), "ms"),
            f"latency_p{TAIL_PERCENT}_ms": (percentile(latencies_ms, TAIL_PERCENT / 100), "ms"),
        }

    def commit_metrics(self, commits_ms: List[float]) -> Dict[str, tuple]:
        self.notes.append(f"commits: {len(commits_ms)} samples")
        if not measure.tail_supported(len(commits_ms), 90):
            raise InvalidRun(f"only {len(commits_ms)} commit samples; p90 needs 100")
        return {
            "commit_p50_ms": (percentile(commits_ms, 0.50), "ms"),
            "commit_p90_ms": (percentile(commits_ms, 0.90), "ms"),
        }

    @staticmethod
    def late_ms(load) -> float:
        return percentile(load.lateness, 0.99) * 1000.0 if load.lateness else 0.0

    def check_generator(self, load) -> None:
        late = self.late_ms(load)
        self.notes.append(
            f"generator: late p99 {late:.3f} ms, client cpu {load.client_cpu_ratio:.3f}")
        if late > MAX_LATE_MS:
            raise InvalidRun(f"generator fell behind its schedule (p99 late {late:.1f} ms)")
        if load.client_cpu_ratio > MAX_CLIENT_CPU_RATIO:
            raise InvalidRun(f"generator saturated its CPU ({load.client_cpu_ratio:.2f})")

    def note_breakdown(self, breakdown: Dict[str, float], what: str = "read") -> None:
        parts = ", ".join(f"{layer} {ms:.3f}" for layer, ms in
                          sorted(breakdown.items(), key=lambda item: -item[1]))
        self.notes.append(f"self ms per {what} by layer: {parts}")

    def run(self) -> Report:
        runner = self.run_inproc if self.workload in ("paper-xpath", "cold-open") else self.run_served
        report = runner()
        report.notes = self.notes + report.notes
        return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        report = bench.run()
    except InvalidRun as error:
        print("\n".join(bench.notes), file=sys.stderr)
        print(f"perfbench: invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    context = measure.run_context(ROOT, args.workload, args.seed)
    print("context: " + json.dumps(context, sort_keys=True))
    for note in report.notes:
        print(note)
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {report.failed / report.attempted:.6g} "
          f"({report.failed} failed of {report.attempted} attempted)")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
